"""The control stack gives the same bits on every CPython the package accepts.

plant, controller and checks import only the standard library, so a bare
copy of the three runs on any interpreter, without numpy. The script below
drives both controllers through plants with finger pushes, overlapping
object pushes and two wrist sweeps, restores each plant mid-run onto a fresh
one, and hashes every command and state. The test runs it under each other
CPython it finds and compares each hash with the one this interpreter gets
from the package itself. The sensor noise, the closure certifier and the
CSVs need numpy and are not checked here.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from graspforce import controller, plant

ROOT = Path(__file__).resolve().parents[1]
STACK = ("plant.py", "controller.py", "checks.py")
MINIMUM = tuple(map(int, re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                                   (ROOT / "pyproject.toml").read_text()).groups()))

SCRIPT = '''
import hashlib
import math
import sys

TICKS = 200


def digest(plant, controller):
    """SHA-256 over every tick's command, plant state, f_ext and phase, for every case."""
    out = hashlib.sha256()
    push, sweep = plant.Push, plant.WristSweep(0.4, 1.8, angle_end=math.pi)
    # Edges inside a 0.01 s period: the plant weighs a still wrist once per period.
    inside = plant.WristSweep(0.40537, 1.70261, angle_end=-2.0, angle_start=0.5)
    disturbances = (
        ((), None),
        ((push("finger1", 1.0, 0.5, 1.2), push("finger2", 0.7, 0.8, 1.9, ramp=0.05)), None),
        # Three overlapping object pushes: a compensated sum gives other bits.
        ((push("object", 0.1, 0.4, 1.6), push("object", 0.2, 0.6, 1.8, ramp=0.2),
          push("object", 0.3, 0.8, 1.9, ramp=0.0)), None),
        ((push("finger1", 0.3, 0.9, 1.5),), sweep),
        ((push("object", 0.2, 0.3, 1.1, ramp=0.05),), inside),
    )
    objects = (plant.ObjectSpec("roll", mass=0.049, width=0.06, stiffness=2000.0, damping=60.0),
               plant.ObjectSpec("foam", mass=0.002, width=0.05, stiffness=500.0, damping=1.0))
    for obj in objects:
        for offset in (0.0, -0.0, 0.004, -0.007, 0.011):
            start = obj.width + 2.0 * abs(offset) + 0.01
            request = controller.GraspRequest(start, obj.width - 0.002, 1.2)
            for pushes, wrist in disturbances:
                for kind in (controller.GraspController, controller.TrajectoryController):
                    ctrl = kind(controller.ControllerConfig(mass=obj.mass), request)
                    def new_plant():
                        return plant.Plant(obj, start, offset, pushes, wrist, period=0.01)
                    live = new_plant()
                    for k in range(TICKS):
                        if k == TICKS // 2:
                            restored = new_plant()
                            restored.restore(live.state())
                            live = restored
                        cmd = ctrl.tick(live.load_f1, live.load_f2, live.q1, live.q2,
                                        live.g_dot_n)
                        live.step(cmd)
                        out.update(repr((cmd, live.state(), ctrl.last_f_ext, ctrl.phase)).encode())
    return out.hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    from stack import controller, plant
    print(digest(plant, controller))
'''


def interpreters() -> dict[str, str]:
    """Full version -> path, for each CPython that runs here and that the package accepts.

    A name on PATH is not enough: a version manager's shim can be there and
    exit with "command not found", so only an interpreter that answers counts.
    """
    names = [shutil.which(f"python{MINIMUM[0]}.{minor}") for minor in range(MINIMUM[1], 20)]
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    paths = [*filter(None, names), *map(str, sorted(pyenv.glob("versions/*/bin/python")))]
    found = {}
    for path in paths:
        try:
            answer = subprocess.run(
                [path, "-I", "-S", "-c", "import platform, sys; print(platform.python_implementation(),"
                                   " *sys.version_info[:3])"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = answer.stdout.split()
        if answer.returncode == 0 and len(words) == 4 and words[0] == "CPython":
            version = tuple(map(int, words[1:]))
            if version[:2] >= MINIMUM:
                found.setdefault(".".join(words[1:]), path)
    return found


def test_the_control_stack_gives_one_hash_on_every_interpreter(tmp_path):
    this = sys.version.split()[0]
    found = {version: path for version, path in interpreters().items() if version != this}
    if not found:
        pytest.skip(f"no CPython >= {MINIMUM[0]}.{MINIMUM[1]} but this one ({this}) runs here,"
                    f" on PATH or under pyenv")
    package = tmp_path / "stack"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name in STACK:
        shutil.copy(Path(plant.__file__).with_name(name), package / name)
    script = tmp_path / "stack_hash.py"
    script.write_text(SCRIPT)
    namespace = {"__name__": "stack_hash"}
    exec(compile(SCRIPT, str(script), "exec"), namespace)
    expected = namespace["digest"](plant, controller)

    runs = {version: subprocess.Popen([path, "-I", str(script), str(tmp_path)],
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for version, path in found.items()}
    hashes = {}
    for version, run in runs.items():
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, f"CPython {version}: {err}"
        hashes[version] = out.strip()
    print(f"CPython {this} (this one): {expected}")
    for version, digest in hashes.items():
        print(f"CPython {version} ({found[version]}): {digest}")
    assert hashes == dict.fromkeys(hashes, expected), f"differs from CPython {this}"
