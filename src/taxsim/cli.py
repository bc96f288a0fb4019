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
    ParseError,
    StructureError,
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


def _ic_table(args, taxonomy, index, model):
    frequencies = None
    if model == "corpus":
        if not args.frequencies:
            raise InvalidCombinationError("--ic-model=corpus requires --frequencies")
        with open(args.frequencies, encoding="utf-8") as f:
            frequencies = wordnet.load_frequencies(f)
    elif args.frequencies:
        raise InvalidCombinationError("--frequencies only applies to the corpus model")
    return ic.make_table(taxonomy, model, index=index, frequencies=frequencies)


def cmd_info(args):
    taxonomy, index = _load(args)
    root = taxonomy.synsets[taxonomy.root]
    print(f"synsets {taxonomy.max_nodes}")
    print(f"max_depth {taxonomy.max_depth}")
    print(f"max_subsumer_count {taxonomy.max_subsumer_count}")
    print(f"root {taxonomy.root} ({root.lemmas[0]})")
    return 0


def cmd_ic(args):
    taxonomy, index = _load(args)
    table = _ic_table(args, taxonomy, index, args.ic_model)
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
    measure = similarity.get_measure(args.measure)
    table = _ic_table(args, taxonomy, index, args.ic_model) if measure.needs_ic else None
    if measure.needs_ic is False and args.frequencies:
        raise InvalidCombinationError(f"{measure.name} does not use --frequencies")
    score, c1, c2 = similarity.best_sense_pair(
        taxonomy, index, measure, args.word1, args.word2, ic=table)
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


def _bench_measures(args, taxonomy, index):
    """Expand --measures into (name, ic_table) pairs.

    With the default hybrid IC, jcn_norm gets the seco table instead since
    it requires a normalized model; an explicit --ic applies everywhere
    and fails fast on invalid pairings.
    """
    names = (list(similarity.MEASURES) if args.measures == "all"
             else [m.strip() for m in args.measures.split(",") if m.strip()])
    if not names:
        raise InvalidCombinationError(f"--measures {args.measures!r} names no measure")
    tables = {}
    pairs = []
    for name in names:
        measure = similarity.get_measure(name)
        if not measure.needs_ic:
            pairs.append((name, None))
            continue
        model = args.ic_model or ("seco" if name == "jcn_norm" else "hybrid")
        if model not in tables:
            tables[model] = _ic_table(args, taxonomy, index, model)
        pairs.append((name, tables[model]))
    return pairs


def cmd_bench(args):
    taxonomy, index = _load(args)
    if args.dataset == "rg30":
        dataset = evaluation.embedded_rg30()
    else:
        with open(args.dataset, encoding="utf-8") as f:
            dataset = evaluation.load_dataset_tsv(f, name=os.path.basename(args.dataset))
    measures = _bench_measures(args, taxonomy, index)
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
    p.add_argument("--ic", dest="ic_model", default="hybrid", choices=ic.MODELS)
    p.add_argument("--frequencies", metavar="FILE")
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
    p.add_argument("--frequencies", metavar="FILE")
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
    except (ParseError, StructureError, TaxonomyError, OSError,
            UndefinedCorrelationError) as exc:
        print(f"taxsim: {exc}", file=sys.stderr)
        return EXIT_LOAD_ERROR


if __name__ == "__main__":
    sys.exit(main())
