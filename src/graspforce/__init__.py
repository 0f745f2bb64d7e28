"""Grasp force control with contact simulation and closure analysis.

The package splits into three layers. The bottom layer is pure math:
rigid-body transforms and wrenches (`geometry`), a dense simplex solver
(`simplex`), and the force-closure evaluator built on both (`closure`).
The middle layer is the control stack: the tactile sensor model
(`sensor`), the three-phase grasp controller (`controller`), and the
1-D two-finger contact plant (`plant`). The top layer wires them
together: scenario configs (`scenarios`), the trial and experiment
harness (`harness`), and the command-line interface (`cli`).
"""

from .closure import (
    ClosureReport,
    Contact,
    build_grasp_matrix,
    in_friction_cone,
    is_force_closure,
    linearize_cone,
    resistance_oracle,
)
from .controller import (
    ControlCommand,
    ControllerConfig,
    GraspController,
    GraspPhase,
    GraspRequest,
    TrajectoryController,
    compute_external_force,
    distribute,
)
from .geometry import adjoint_transform, rotation_from_normal
from .harness import (
    ConfigError,
    RuntimeFault,
    TrialResult,
    run_experiment_a,
    run_experiment_b,
    run_trial,
    write_csv,
)
from .plant import DisturbanceSchedule, ObjectSpec, Plant, PlantConfig, Push, WristSweep
from .scenarios import ScenarioSpec, SensorSetup, load_scenario
from .sensor import CalibratedSensor, SensorModel, calibrate, contact_detected, estimate_bias

__version__ = "0.1.0"
