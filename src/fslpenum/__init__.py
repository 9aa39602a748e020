"""Answer enumeration for tree-automaton queries over grammar-compressed forests."""

from .automata import (
    DBUTA,
    NSTA,
    MultivarReduction,
    StateLimitExceeded,
    build_btau,
    multivar_reduce,
    nsta_to_dbuta,
)
from .dagenum import (
    DecoratedDAG,
    FMSession,
    Normalizer,
    PathSession,
    fm_preprocess,
    preprocess,
)
from .effects import MonoidCategory, PRE_CATEGORY
from .forest import Forest, ForestContext, ParseError, parse_term, serialize_term
from .fslp import (
    FSLP,
    BudgetExceeded,
    InvalidFSLP,
    VertexStats,
    chain_fslp,
    compress_forest,
    compute_stats,
    evaluate,
    path_preorder,
    preorder_to_path,
    relabel_path,
    row_fslp,
)
from .msoenum import (
    AnswerStream,
    ConfSets,
    ProductIndex,
    build_conf_sets,
)
from .oracle import (
    Effect,
    Expr,
    ExprLeaf,
    ExprNode,
    OracleBudget,
    brute_dbuta_select,
    brute_path_order,
    brute_paths,
    brute_select,
    brute_word_paths,
    dbuta_accepts,
    dbuta_run,
    edge_effect,
    enumerate_select_uncompressed,
    eval_expr,
    expr_equal,
    fold_expr,
    hc,
    leaf,
    leaf_preorders,
    leafctx,
    nsta_accepts,
    type_of,
    unfold,
    vc,
)
from .updates import EnumDataStructure, build_enum_structure, extend, relabel

__version__ = "0.1.0"
