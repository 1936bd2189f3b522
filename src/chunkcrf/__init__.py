"""CRF span chunking toolkit: linear-chain, semi-Markov, and split-node models."""

from .core import (
    OUTSIDE,
    CharSpan,
    LabelSet,
    Sentence,
    SpanError,
    Token,
    WordSpan,
    char_spans_to_word_spans,
    is_token_aligned,
    tokenize,
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
    Lattice,
    LatticeError,
    Node,
    build_lattice,
)
from .inference import (
    Marginals,
    edge_scores,
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
    load_model,
    save_model,
    train,
    tune_lambda,
)
from .evaluate import (
    BootstrapResult,
    EvalReport,
    score_corpus,
)

__version__ = "0.1.0"
