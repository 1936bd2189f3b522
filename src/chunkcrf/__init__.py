"""CRF span chunking toolkit: linear-chain, semi-Markov, and split-node models."""

from .core import (
    OUTSIDE,
    BioSequence,
    CharSpan,
    LabelSet,
    Sentence,
    SpanError,
    Token,
    WordSpan,
    bio_to_word_spans,
    char_spans_to_word_spans,
    is_token_aligned,
    tokenize,
    word_spans_to_bio,
    word_spans_to_char_spans,
)
from .features import (
    BrownClusterMap,
    FeatureConfig,
    FeatureDictionary,
    FeatureExtractor,
    load_brown_clusters,
    word_shape,
)
from .ingest import AnnotatedText, CorpusStats, DataFormatError, corpus_stats, read_corpus
from .lattice import (
    MODEL_KINDS,
    Batch,
    EdgeClass,
    Lattice,
    LatticeError,
    Node,
    NodeKind,
    build_lattice,
)
from .inference import (
    Marginals,
    edge_marginals,
    edge_scores,
    log_partition,
    viterbi,
    viterbi_path,
)
from .training import (
    LAMBDA_GRID,
    Dataset,
    DataItem,
    Model,
    ModelFormatError,
    NumericalError,
    ObjectiveEvaluator,
    TrainConfig,
    export_model_json,
    load_model,
    save_model,
    train,
    tune_lambda,
)
from .evaluate import (
    BootstrapResult,
    EvalReport,
    benchmark_label_sweep,
    bootstrap_interval,
    gold_upper_bound,
    score_corpus,
    score_spans,
)

__version__ = "0.1.0"
