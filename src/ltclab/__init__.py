"""Product codes over prime fields and exact local-tester robustness measurement."""

from .code import (
    LinearCode,
    Word,
    distance,
    full_code,
    reed_solomon,
    repetition,
)
from .field import Field, FieldElement
from .harness import (
    ExperimentConfig,
    instance_from_specs,
    parse_code_spec,
    parse_graph_spec,
    product_instance,
    query_account,
    run_compose_check,
    run_expansion_check,
    run_sweep,
)
from .tanner import (
    OrderedGraph,
    TannerCode,
    check_expansion,
    iterated_graph,
    product_graph,
    square_test_graph,
    tpc_linear_code,
)
from .tensor import TensorCode, TensorWord, project_word, tensor_power, tensor_product
from .tester import RobustnessReport, SampledEstimate, TestInstance

__version__ = "0.1.0"

__all__ = [
    "Field",
    "FieldElement",
    "LinearCode",
    "Word",
    "distance",
    "full_code",
    "reed_solomon",
    "repetition",
    "TensorCode",
    "TensorWord",
    "project_word",
    "tensor_power",
    "tensor_product",
    "OrderedGraph",
    "TannerCode",
    "check_expansion",
    "iterated_graph",
    "product_graph",
    "square_test_graph",
    "tpc_linear_code",
    "TestInstance",
    "RobustnessReport",
    "SampledEstimate",
    "ExperimentConfig",
    "instance_from_specs",
    "parse_code_spec",
    "parse_graph_spec",
    "product_instance",
    "query_account",
    "run_compose_check",
    "run_expansion_check",
    "run_sweep",
]
