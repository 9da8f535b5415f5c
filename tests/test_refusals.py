"""Refusals that public calls reach and no other in-process test does: each call raises its type."""

import numpy as np
import pytest

from ltclab import linalg
from ltclab.code import LinearCode, reed_solomon, repetition
from ltclab.errors import DegreeMismatchError, GraphTooLargeError, IndexOutOfRangeError, ShapeMismatchError
from ltclab.field import Field, FieldElement
from ltclab.harness import product_instance, run_expansion_check
from ltclab.tanner import product_graph, square_test_graph, tpc_linear_code
from ltclab.tensor import TensorWord, project_word, tensor_power

GF2 = Field(2)
SQUARE = tensor_power(repetition(GF2, 2), 2)  # k = (1, 1) on the 2 x 2 grid
GRID = TensorWord(GF2, (2, 2), [0, 0, 0, 0])


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: product_instance(reed_solomon(Field(5), 4, 2), 1), ValueError),
        (lambda: run_expansion_check(product_graph(2, 2), mode="random"), ValueError),
        (lambda: LinearCode.from_rows(GF2, [[1.5, 0]]), ValueError),
        (lambda: linalg.solve_unique(np.eye(2, dtype=np.int64), np.zeros(3), 2), ValueError),
        (lambda: product_graph(2, 2).row0(4), IndexError),
        (lambda: product_graph(2, 63), GraphTooLargeError),
        (lambda: tpc_linear_code(product_graph(2, 2), repetition(GF2, 3)), DegreeMismatchError),
        (lambda: square_test_graph(2, 1), ValueError),
        (lambda: GRID.at(1), IndexOutOfRangeError),
        (lambda: SQUARE.encode_tensor(np.zeros((2, 2), dtype=np.int64)), ShapeMismatchError),
        (lambda: SQUARE.extend([[1, 2]], GRID), ValueError),
        (lambda: SQUARE.extend([[1, 2], [1, 2]], TensorWord(GF2, (1, 2), [0, 0])), ShapeMismatchError),
        (lambda: project_word(GRID, [[1]]), ValueError),
        (lambda: Field(2.0), TypeError),
        (lambda: FieldElement(GF2, 2), ValueError),
    ],
    ids=[
        "product-instance-m-1", "expansion-mode", "float-rows", "solve-rhs-shape", "row0-range",
        "product-graph-2-63", "tpc-degree", "square-graph-t-1", "tensor-word-at-arity", "encode-tensor-shape",
        "extend-index-sets", "extend-partial-shape", "project-word-index-sets", "field-float",
        "field-element-range",
    ],
)
def test_a_public_call_is_refused_with_its_type(call, error):
    with pytest.raises(error):
        call()


INSTANCE = product_instance(repetition(GF2, 3), 2)  # views of length 3 on the (3, 3) grid
E1 = TensorWord(GF2, (3, 3), [1] + [0] * 8)

# Each call reads one 1-based coordinate: an axis, a grid coordinate, a view or a right vertex.
COORDINATE_CALLS = {
    "tensor-word-at": lambda i: E1.at(1, i),
    "axis-slice-axis": lambda b: GRID.axis_slice(b, 1),
    "axis-slice-coordinate": lambda i: GRID.axis_slice(1, i),
    "view-robustness": lambda j: INSTANCE.view_robustness(E1, j),
    "neighbors": lambda j: INSTANCE.graph.neighbors(j),
    "view": lambda j: INSTANCE.graph.view(E1.values, j),
}


@pytest.mark.parametrize("bad", [1.5, 1.0, True], ids=["1.5", "1.0", "True"])
@pytest.mark.parametrize("entry", sorted(COORDINATE_CALLS))
def test_a_coordinate_that_is_not_an_integer_is_a_type_error(entry, bad):
    # Truncated or read as a bool, each would name coordinate 1.
    COORDINATE_CALLS[entry](np.int64(1))  # a numpy integer is an integer
    with pytest.raises(TypeError):
        COORDINATE_CALLS[entry](bad)
