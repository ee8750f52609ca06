"""Container-aware workflow planning, wrapper generation and simulation."""

from .catalog import (
    Catalog,
    ContainerDef,
    ContainerRuntime,
    ImageRef,
    ImageScheme,
    InstallType,
    MountSpec,
    TransformationEntry,
    parse_catalog,
    parse_image_url,
    parse_mount_spec,
    resolve_transformation,
    serialize_catalog,
)
from .launcher import (
    ExecutionReport,
    Step,
    StepKind,
    WrapperPlan,
    build_plans,
    build_wrapper_plan,
    execute_local,
    render_wrapper,
)
from .planner import (
    ComputePayload,
    ExecutableWorkflow,
    Job,
    JobKind,
    PlacementMode,
    PlanConfig,
    Site,
    TransferPayload,
    cluster_jobs,
    decide_placement,
    insert_container_fetch_jobs,
    plan,
    validate_executable,
)
from .simulator import (
    NodeSpec,
    SimConfig,
    SimResult,
    Topology,
    critical_path_lower_bound,
    report,
    simulate,
    sweep,
)
from .workflow import (
    AbstractWorkflow,
    FileMeta,
    Task,
    parse_workflow,
    serialize_workflow,
    topological_levels,
    validate_dag,
)

__version__ = "0.1.0"
