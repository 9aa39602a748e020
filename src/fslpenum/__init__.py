"""Answer enumeration for tree-automaton queries over grammar-compressed forests."""

from .automata import (
    DBUTA,
    NSTA,
    MultivarReduction,
    StateLimitExceeded,
    build_btau,
    dbuta_accepts,
    dbuta_run,
    multivar_reduce,
    nsta_accepts,
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
from .effects import Effect, MonoidCategory, PRE_CATEGORY
from .forest import (
    Expr,
    ExprLeaf,
    ExprNode,
    Forest,
    ForestContext,
    ParseError,
    eval_expr,
    expr_equal,
    hc,
    leaf,
    leafctx,
    parse_term,
    serialize_term,
    type_of,
    vc,
)
from .fslp import (
    FSLP,
    BudgetExceeded,
    InvalidFSLP,
    VertexStats,
    chain_fslp,
    compress_forest,
    compute_stats,
    edge_effect,
    evaluate,
    fold_expr,
    path_preorder,
    preorder_to_path,
    relabel_defs,
    row_fslp,
    unfold,
)
from .msoenum import (
    AnswerStream,
    ConfSets,
    ProductIndex,
    build_conf_sets,
)
from .oracle import (
    OracleBudget,
    brute_dbuta_select,
    brute_paths,
    brute_select,
    brute_word_paths,
    enumerate_select_uncompressed,
    leaf_preorders,
)
from .updates import EnumDataStructure, build_enum_structure, extend, relabel

__version__ = "0.1.0"
