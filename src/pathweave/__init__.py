"""Path algebra for exposing multi-relational networks to single-relational
network analysis.

A multi-relational network is stored as a boolean three-way tensor: one
sparse adjacency slice per edge label over a shared vertex dictionary.
Path expressions compose slices with matrix products, transposes,
entrywise filters, complements, clipping, vertex saturation, scaling, and
merging; evaluating one yields a nonnegative path matrix, a weighted
single-relational network ready for geodesics, PageRank, spreading
activation, or assortativity.
"""

from .analysis import (
    GeodesicResult,
    PageRankConfig,
    assortativity_categorical,
    assortativity_scalar,
    pagerank,
    pagerank_matrix,
    shortest_paths,
    spreading_activation,
)
from .errors import (
    AnalysisError,
    EvalError,
    ExprSyntaxError,
    GraphFormatError,
    PathweaveError,
)
from .evaluate import EvalPlan, evaluate, plan, verify_rule
from .expr import (
    Add,
    Clip,
    Filter,
    Hadamard,
    MatMul,
    Not,
    Scale,
    SignatureReport,
    SliceRef,
    Transpose,
    VIn,
    VOut,
    check_signatures,
    format_expr,
    parse,
    parse_program,
)
from .kernels import (
    FilterSpec,
    PathMatrix,
    add,
    clip,
    export_tsv,
    hadamard,
    materialize_filter,
    matmul,
    not_,
    scale,
    transpose,
    vertex_in,
    vertex_out,
)
from .rewrite import (
    RULES,
    RewriteRule,
    RuleTrace,
    derivation_table,
    simplify,
)
from .tensor import (
    EdgeSlice,
    MultiRelTensor,
    VertexDictionary,
    format_triples,
    ingest_triples,
    parse_triples,
    read_properties,
    read_signatures,
    read_triples,
)

__version__ = "0.1.0"
