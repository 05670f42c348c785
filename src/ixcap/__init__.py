"""Information extraction from a strategic sender: certified capacity
brackets, equilibrium strategies, and the supporting exact combinatorics."""

from .channel import Channel, channel_from_json, identity_channel, load_channel, make_channel
from .errors import (
    BudgetExceededError,
    CapExceededError,
    ConvergenceError,
    InputError,
    IxcapError,
    VerificationError,
)
from .game import (
    DOMINATED,
    GameOutcome,
    ReceiverStrategy,
    equilibrium_value_noiseless,
    expected_block_utility,
    naive_receiver_strategy,
    noisy_equilibrium_value,
    noisy_receiver_strategy,
    receiver_strategy_from_set,
    worst_case_decoded_set,
)
from .graphs import (
    Graph,
    confusability_graph,
    graph_from_edges,
    graph_from_json,
    independence_number,
    load_graph,
    sender_graph,
    strong_power,
    strong_product,
    symmetric_sender_graph,
)
from .lower_bounds import (
    FeasibleSetCertificate,
    feasibility_report,
    gamma,
    gamma_n,
    is_feasible_O,
    sufficient_margin_check,
)
from .theta import lovasz_theta
from .upper_bounds import (
    CapacityBracket,
    ExactValue,
    asymptotic_rate_bracket,
    in_perfect_whitelist,
    is_two_valued_a_ge_b,
    xi_bracket,
)
from .utility import (
    Alphabet,
    UtilityMatrix,
    block_sums,
    block_utility,
    block_utility_rows,
    load_utility,
    normalize_diagonal,
    utility_from_graph,
    utility_from_json,
)

__version__ = "0.1.0"
