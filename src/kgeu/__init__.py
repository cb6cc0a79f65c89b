"""Knowledge-graph embedding toolkit.

TransE, TransH, and ComplEx over an optionally unified vocabulary in
which a term used both as a node and as a predicate owns a single
embedding row, plus training, link-prediction evaluation, and dataset
tooling.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    FormatError,
    IndexOverflowError,
    InvalidConfigError,
    InvalidSpecError,
    KgeError,
    MalformedLineError,
    NonFiniteUpdateError,
    TrueAnswerNotCandidateError,
    UnknownTermError,
)
from .ingest import RawTriple, TermColumns, drop_literals, parse_ntriples, parse_tsv, write_ntriples, write_tsv
from .vocab import (
    DatasetStats,
    TripleIndex,
    Vocabulary,
    build_vocabulary,
    dataset_stats,
    dump_vocabulary,
    intern,
    parse_vocabulary,
)
from .models import (
    EmbeddingTable,
    ModelConfig,
    SparseGrad,
    init_embeddings,
    pair_grad_batch,
    score_batch,
    score_candidates,
)
from .trainer import AdamState, TrainConfig, TrainResult, adam_step, negative_samples, train
from .evaluator import (
    EvalConfig,
    EvalReport,
    candidate_set,
    evaluate,
    model_label,
    render_report_table,
    summarize_reports,
)
from .toy import ToySpec, generate_toy
from .store import load, save
