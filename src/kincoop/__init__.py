"""kincoop: cooperation among independent learners with kin-weighted rewards."""

from .games import (
    DilemmaParams,
    cooperation_favored,
    payoff_matrix,
    transformed_matrix,
)
from .genotype import (
    Genotype,
    GenotypeSpace,
    MutationSpec,
    enumerate_genotypes,
    format_genotype,
    hamming_similarity,
    mutate,
    parse_genotype,
    similarity_matrix,
)
from .learning import (
    LearnerConfig,
    epsilon_at,
    q_update,
    resolve_decay,
)
from .networks import (
    InfeasiblePartitionError,
    NetworkTopology,
    PartitionSpec,
    build_partition_network,
    build_partition_network_with_probs,
    degree_stats,
    derive_partition_probs,
)
from .experiments import (
    ExperimentConfig,
    RunResult,
    aggregate,
    bin_by_similarity,
    cooperator_proportion,
    run_discrimination,
    run_dispersal,
    run_experiment,
)
from .popreward import (
    PopulationState,
    PopulationTrace,
    SandboxConfig,
    combined_reward,
    longevity_reward,
    replication_identity_error,
    replication_reward,
    run_sandbox,
)

__version__ = "0.1.0"
