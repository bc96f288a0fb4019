"""Command-line front end: info, ic, sim, bench.

Exit codes: 0 success, 1 load/parse failure or a dataset that cannot be
correlated, 2 out-of-vocabulary word, 3 invalid flag combination. Reports
go to stdout, diagnostics to stderr.
"""

import argparse
import os
import sys

from . import evaluation, ic, similarity, wordnet
from .errors import (
    InvalidCombinationError,
    OutOfVocabularyError,
    TaxonomyError,
    UndefinedCorrelationError,
    UnusableModelError,
)

EXIT_LOAD_ERROR = 1
EXIT_OOV = 2
EXIT_BAD_COMBINATION = 3


def _add_source_flags(parser):
    parser.add_argument("--wordnet", metavar="DIR",
                        help="WordNet 3.0 dict directory with data.noun and "
                             "index.noun (default: $WORDNET_DIR)")
    parser.add_argument("--taxonomy-tsv", metavar="FILE",
                        help="TSV taxonomy file (child<TAB>parent edges)")


def _load(args):
    if args.taxonomy_tsv and args.wordnet:
        raise InvalidCombinationError("--wordnet and --taxonomy-tsv are mutually exclusive")
    if args.taxonomy_tsv:
        with open(args.taxonomy_tsv, encoding="utf-8") as f:
            return wordnet.load_tsv_taxonomy(f)
    wordnet_dir = args.wordnet or os.environ.get("WORDNET_DIR")
    if wordnet_dir:
        return wordnet.load_wordnet(wordnet_dir)
    raise InvalidCombinationError(
        "no taxonomy source: pass --wordnet/--taxonomy-tsv or set WORDNET_DIR")


def _ic_tables(args, models, taxonomy, index):
    """Build one IC table per model name, keyed by model.

    --frequencies is legal exactly when one of the tables is the corpus one.
    """
    models = dict.fromkeys(models)
    frequencies = None
    if "corpus" in models:
        if not args.frequencies:
            flag = "--model" if args.command == "ic" else "--ic"
            raise InvalidCombinationError(f"{flag} corpus requires --frequencies")
        with open(args.frequencies, encoding="utf-8") as f:
            frequencies = wordnet.load_frequencies(f)
    elif args.frequencies:
        raise InvalidCombinationError("--frequencies only applies to the corpus model")
    return {model: ic.make_table(taxonomy, model, index=index, frequencies=frequencies)
            for model in models}


def _measure_tables(args, names, taxonomy, index):
    """Pair each measure name with the IC table it scores with, or None.

    An explicit --ic applies to every measure that reads a table; otherwise
    each measure reads the table of its own IC model.
    """
    measures = [similarity.get_measure(name) for name in names]
    models = [m.ic_model and (args.ic_model or m.ic_model) for m in measures]
    tables = _ic_tables(args, filter(None, models), taxonomy, index)
    return [(m.name, tables.get(model)) for m, model in zip(measures, models)]


def cmd_info(args):
    taxonomy, index = _load(args)
    root = taxonomy.synsets[taxonomy.root]
    print(f"synsets {len(taxonomy)}")
    print(f"max_depth {taxonomy.max_depth}")
    print(f"max_subsumer_count {taxonomy.max_subsumer_count}")
    print(f"edges {taxonomy.edge_count}")
    print(f"multi_parent {taxonomy.multi_parent_count}")
    print(f"leaves {taxonomy.leaf_count}")
    print(f"max_fanout {taxonomy.max_fanout}")
    print(f"core_nodes {taxonomy.core_count}")
    print(f"branch_nodes {taxonomy.branch_count}")
    print(f"root {taxonomy.root} ({root.lemmas[0]})")
    return 0


def cmd_ic(args):
    taxonomy, index = _load(args)
    table = _ic_tables(args, [args.ic_model], taxonomy, index)[args.ic_model]
    token = args.word
    if token in taxonomy:
        senses = [token]
    else:
        senses = index.senses(token)
    for sid in senses:
        first = taxonomy.synsets[sid].lemmas[0]
        print(f"{sid}\t{first}\t{table[sid]:.4f}")
    return 0


def cmd_sim(args):
    taxonomy, index = _load(args)
    [(name, table)] = _measure_tables(args, [args.measure], taxonomy, index)
    score, c1, c2 = similarity.best_sense_pair(
        taxonomy, index, name, args.word1, args.word2, ic=table)
    print(f"{score.value:.4f}")
    if args.explain:
        lcs = taxonomy.lcs(c1, c2)
        print(f"senses\t{c1}\t{c2}", file=sys.stderr)
        print(f"lcs\t{lcs}\tdepth {taxonomy.depth(lcs)}", file=sys.stderr)
        print(f"depths\t{taxonomy.depth(c1)}\t{taxonomy.depth(c2)}", file=sys.stderr)
        print(f"subsumers\t{taxonomy.subsumer_count(c1)}\t{taxonomy.subsumer_count(c2)}\t"
              f"lcs {taxonomy.subsumer_count(lcs)}", file=sys.stderr)
        print(f"path_edges\t{taxonomy.shortest_path_edges(c1, c2)}", file=sys.stderr)
    return 0


def cmd_bench(args):
    taxonomy, index = _load(args)
    if args.dataset == "rg30":
        dataset = evaluation.embedded_rg30()
    else:
        with open(args.dataset, encoding="utf-8") as f:
            dataset = evaluation.load_dataset_tsv(f, name=os.path.basename(args.dataset))
    # a name given twice is scored once, in the column it first names
    names = (list(similarity.MEASURES) if args.measures == "all"
             else list(dict.fromkeys(m.strip() for m in args.measures.split(",") if m.strip())))
    if not names:
        raise InvalidCombinationError(f"--measures {args.measures!r} names no measure")
    measures = _measure_tables(args, names, taxonomy, index)
    report = evaluation.run_benchmark(taxonomy, index, dataset, measures,
                                      skip_oov=args.skip_oov)
    sys.stdout.write(evaluation.emit_report(report, fmt=args.format))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="taxsim",
        description="Taxonomy semantic similarity: IC models, similarity "
                    "measures, and benchmark correlation against human ratings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print taxonomy statistics")
    _add_source_flags(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ic", help="per-sense information content of a word")
    _add_source_flags(p)
    p.add_argument("word")
    p.add_argument("--model", dest="ic_model", default="hybrid",
                   choices=ic.MODELS)
    p.add_argument("--frequencies", metavar="FILE",
                   help="lemma<TAB>count file (corpus model only)")
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser("sim", help="word-pair similarity score")
    _add_source_flags(p)
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--measure", default="wup", choices=sorted(similarity.MEASURES))
    p.add_argument("--ic", dest="ic_model", default=None, choices=ic.MODELS,
                   help="IC model for an IC-based measure (default: the "
                        "measure's own)")
    p.add_argument("--frequencies", metavar="FILE",
                   help="lemma<TAB>count file (corpus model only)")
    p.add_argument("--explain", action="store_true",
                   help="print the winning sense pair and its lcs details to stderr")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("bench", help="run a benchmark dataset and report correlations")
    _add_source_flags(p)
    p.add_argument("--dataset", default="rg30",
                   help="'rg30' or a word1<TAB>word2<TAB>rating file")
    p.add_argument("--measures", default="all",
                   help="'all' or a comma-separated measure list")
    p.add_argument("--ic", dest="ic_model", default=None, choices=ic.MODELS,
                   help="force one IC model for all IC-based measures")
    p.add_argument("--frequencies", metavar="FILE",
                   help="lemma<TAB>count file (corpus model only)")
    p.add_argument("--format", default="tsv", choices=("tsv", "csv", "pretty"))
    p.add_argument("--skip-oov", action="store_true",
                   help="drop out-of-vocabulary pairs instead of failing")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OutOfVocabularyError as exc:
        print(f"taxsim: {exc}", file=sys.stderr)
        return EXIT_OOV
    except (InvalidCombinationError, UnusableModelError) as exc:
        print(f"taxsim: {exc}", file=sys.stderr)
        return EXIT_BAD_COMBINATION
    except (TaxonomyError, OSError, UndefinedCorrelationError) as exc:
        print(f"taxsim: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR


if __name__ == "__main__":
    sys.exit(main())
