"""kincoop: cooperation among independent learners with kin-weighted rewards."""

from .games import (
    Action,
    DilemmaParams,
    PayoffPair,
    cooperation_favored,
    inclusive_pairwise_reward,
    inclusive_reward_vector,
    pd_payoffs,
    payoff_matrix,
    transformed_matrix,
)
from .genotype import (
    Genotype,
    GenotypeSpace,
    MutationSpec,
    enumerate_genotypes,
    hamming_similarity,
    mutate,
    similarity_matrix,
)
from .learning import (
    LearnerConfig,
    QTable,
    epsilon_at,
    greedy_action,
    q_update,
    resolve_decay,
    select_action,
)
from .networks import (
    InfeasiblePartitionError,
    NetworkTopology,
    PartitionSpec,
    build_complete_network,
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
    evaluate_rewards,
    longevity_reward,
    replication_identity_error,
    replication_reward,
    run_sandbox,
)

__version__ = "0.1.0"
