"""Write perfbench/reference.json from the program in this checkout.

    python3 perfbench/make_reference.py

For each input seed 0..SEEDS-1 it records the SHA-256 of every CSV that
``graspforce exp-a`` and ``graspforce exp-b`` write with that seed, their
tick counts, and one verdict letter per generated closure contact set.
Run it only at a commit whose outputs are the accepted behaviour: every
later benchmark run whose outputs differ counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run

SEEDS = 32


def main() -> int:
    run.load_program()
    import instances
    import workloads
    from graspforce import cli, closure
    from spans import Tracer

    out = run.OUT / "reference-csv"
    reference = {"seeds": SEEDS}
    for name, command in workloads.SIM_COMMANDS.items():
        reference[name] = {}
        for seed in range(SEEDS):
            shutil.rmtree(out, ignore_errors=True)
            tracer = Tracer()
            with tracer.installed(workloads.LIGHT_TARGETS), contextlib.redirect_stdout(
                io.StringIO()
            ):
                code = cli.main([command, "--seed", str(seed), "--out-dir", str(out)])
            if code != 0:
                print(f"error: {command} --seed {seed} exited {code}", file=sys.stderr)
                return 1
            ticks = sum(tracer.samples["trial_ticks"])
            reference[name][str(seed)] = {"ticks": ticks, "csv": workloads.hash_outputs(out)}
            print(f"{name} seed {seed}: {ticks} ticks", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)

    reference["closure"] = {
        str(seed): "".join(
            workloads.verdict(closure.is_force_closure(contacts))
            for _, contacts in instances.generate(seed, workloads.SETS_PER_KIND)
        )
        for seed in range(SEEDS)
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
