"""Taxonomy semantic similarity: WordNet noun DAG, IC models, similarity
measures, and benchmark evaluation against human ratings."""

from .taxonomy import Synset, Taxonomy, build_taxonomy
from .wordnet import (
    FrequencyTable,
    LemmaIndex,
    load_frequencies,
    load_tsv_taxonomy,
    load_wordnet,
    parse_data_noun,
    parse_index_noun,
)
from .ic import IcTable, ic_corpus, ic_hybrid, ic_hybrid_table, ic_sanchez, ic_seco
from .similarity import (
    MEASURES,
    Score,
    best_sense_pair,
    dist_jcn,
    dist_rada,
    get_measure,
    sim_jcn_norm,
    sim_lch,
    sim_lin,
    sim_new,
    sim_resnik,
    sim_wup,
    word_similarity,
)
from .evaluation import (
    BenchmarkDataset,
    CorrelationReport,
    embedded_rg30,
    emit_report,
    pearson,
    range_stat,
    run_benchmark,
)

__version__ = "0.1.0"
