"""Seeded generator of a WordNet-3.0-shaped noun database.

Writes ``data.noun``, ``index.noun`` and a ``lemma<TAB>count`` frequency
file in the WordNet 3.0 formats, so that taxsim's own parsers read them,
plus ``intended.json``: the structure the generator meant to write, which
the benchmark uses as an oracle independent of the parsers.

Shape (the same for every seed; the seed moves edges, lemmas and glosses):

- 82,115 synsets on node-count depths 1..20 (root at 1), with a fixed
  per-depth population that peaks at depth 9, like WordNet's nouns.
- Every synset's parents sit exactly one level up, so depth(c) equals its
  level and the graph cannot contain a cycle.
- 2.0 % of the synsets (1,642) have a second parent; about 10 % of the deep
  leaves are instances (``@i`` / ``~i`` pointers).
- Only 28 % of the synsets on a level may take children, with heavy-tailed
  (Pareto) weights, which gives WordNet-like fan-out: about four fifths of
  the synsets are leaves and a few have hundreds of children.
- Words per synset: 1 (55 %), 2 (27 %), 3 (11 %), 4 (4 %), 5-8 (3 %).
- Lemma polysemy: 87 % of lemmas have one sense; a polysemous lemma has
  k = 2..33 senses with probability proportional to k ** -2.5.
- Every RG-30 word is bound with a fixed, WordNet-3.0-like sense count
  (``RG30_SENSES``). Highly rated RG-30 pairs get one sense pair placed
  close together: a shared synset (rating >= 3.4), 1-2 hops (>= 2.5) or
  3-4 hops (>= 1.4); the rest are independent draws.
- Glosses, drawn from a pool of 4,096, are a definition of 4-20 short words
  plus, half of the time, a quoted example, so records average about 190
  bytes (WordNet's: 186).

Usage: python3 perfbench/fixture.py --seed N --out DIR
"""

import argparse
import gc
import itertools
import json
import math
import os
import random

NODES = 82_115
MAX_DEPTH = 20
MULTI_PARENT_SHARE = 0.02
INSTANCE_SHARE = 0.10
INTERNAL_SHARE = 0.28
PARETO_ALPHA = 1.3
MAX_WEIGHT = 100.0
WORDS_PER_SYNSET = ((1, 55), (2, 27), (3, 11), (4, 4), (5, 1), (6, 1), (7, 0.5), (8, 0.5))
MONOSEMOUS_SHARE = 0.87
MAX_POLYSEMY = 33
GLOSS_POOL = 4096

# Noun sense counts of the RG-30 words, modelled on WordNet 3.0.
RG30_SENSES = {
    "autograph": 2, "shore": 2, "noon": 1, "string": 10, "glass": 7,
    "magician": 2, "automobile": 1, "wizard": 3, "mound": 4, "stove": 2,
    "coast": 4, "forest": 2, "boy": 4, "rooster": 1, "cushion": 3,
    "jewel": 2, "hill": 6, "sage": 3, "crane": 5, "woodland": 1,
    "brother": 4, "lad": 2, "implement": 1, "oracle": 4, "monk": 1,
    "tool": 4, "bird": 5, "cock": 3, "cord": 5, "midday": 1,
    "tumbler": 3, "serf": 1, "slave": 2, "cemetery": 1, "graveyard": 1,
}

_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]
_OTHER_POINTERS = (("+", "v"), ("%p", "n"), ("#p", "n"), ("%m", "n"), (";c", "n"), ("-c", "n"))


def level_sizes():
    """Synsets per node-count depth 1..MAX_DEPTH, summing to NODES."""
    head = [1, 3, 18, 110, 600]
    rest = NODES - sum(head)
    first = len(head) + 1
    weights = [math.exp(-((d - 9) ** 2) / (2 * 2.6 ** 2)) for d in range(first, MAX_DEPTH + 1)]
    total = sum(weights)
    sizes = [max(3, int(rest * w / total)) for w in weights]
    sizes[9 - first] += rest - sum(sizes)
    return head + sizes


def _pseudo_words(rng, count, taken, min_syllables=2, max_syllables=4, compound_share=0.3):
    """count distinct lowercase pseudo-words, some of them collocations."""
    words = []
    seen = set(taken)

    def syllables(k):
        return "".join(rng.choices(_SYLLABLES, k=k))

    while len(words) < count:
        word = syllables(rng.randint(min_syllables, max_syllables))
        if rng.random() < compound_share:
            word += "_" + syllables(rng.randint(1, 3))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _walk(rng, parents, children, start, hops):
    """End of a random walk of up to `hops` undirected steps: first up, then
    down a different branch, so that in a tree it ends `hops` edges away."""
    node, came_from = start, None
    up = rng.randint(1, hops)
    for _ in range(up):
        if not parents[node]:
            break
        came_from, node = node, rng.choice(parents[node])
    for _ in range(hops - up):
        options = [c for c in children[node] if c != came_from]
        if not options:
            break
        came_from, node = None, rng.choice(options)
    return node


def generate(seed):
    """Build the intended structure for one seed (pure data, no files)."""
    rng = random.Random(seed)
    sizes = level_sizes()
    level = []
    for d, size in enumerate(sizes, start=1):
        level.extend([d] * size)
    n = len(level)
    parents = [[] for _ in range(n)]
    children = [[] for _ in range(n)]
    level_members = []
    level_cum = []
    start = 0
    for size in sizes:
        members = list(range(start, start + size))
        if level_members:
            prev, cum = level_members[-1], level_cum[-1]
            for child, parent in zip(members, rng.choices(prev, cum_weights=cum, k=size)):
                parents[child].append(parent)
                children[parent].append(child)
        # the small top levels are all internal, as in WordNet
        share = 1.0 if size < 150 else INTERNAL_SHARE
        weights = [min(rng.paretovariate(PARETO_ALPHA), MAX_WEIGHT)
                   if rng.random() < share else 0.0 for _ in members]
        level_members.append(members)
        level_cum.append(list(itertools.accumulate(weights)))
        start += size

    # second parents sit on the same level as the first, keeping depths exact
    eligible = range(sizes[0] + sizes[1], n)
    for child in rng.sample(eligible, round(n * MULTI_PARENT_SHARE)):
        d = level[child] - 2
        second = parents[child][0]
        while second == parents[child][0]:
            second = rng.choices(level_members[d], cum_weights=level_cum[d], k=1)[0]
        parents[child].append(second)
        children[second].append(child)

    instance = [not children[i] and level[i] >= 5 and rng.random() < INSTANCE_SHARE
                for i in range(n)]

    # word slots per synset, then lemmas with a stated polysemy distribution
    counts = [c for c, _ in WORDS_PER_SYNSET]
    shares = [s for _, s in WORDS_PER_SYNSET]
    slots_per_synset = rng.choices(counts, weights=shares, k=n)
    poly_k = list(range(2, MAX_POLYSEMY + 1))
    poly_w = [k ** -2.5 for k in poly_k]
    sense_counts = []
    remaining = sum(slots_per_synset)
    while remaining > 0:
        k = 1 if rng.random() < MONOSEMOUS_SHARE else rng.choices(poly_k, weights=poly_w)[0]
        k = min(k, remaining)
        sense_counts.append(k)
        remaining -= k
    names = _pseudo_words(rng, len(sense_counts), RG30_SENSES)
    slots = [i for i, k in enumerate(slots_per_synset) for _ in range(k)]
    rng.shuffle(slots)
    words = [[] for _ in range(n)]
    senses = {}
    pos = 0
    for name, k in zip(names, sense_counts):
        chosen = []
        for sid in slots[pos:pos + k]:
            if sid not in chosen:
                chosen.append(sid)
        pos += k
        for sid in chosen:
            words[sid].append(name)
        senses[name] = chosen
    # a synset whose every slot went to a duplicate gets a fresh monosemous lemma
    spare = iter(_pseudo_words(rng, sum(1 for w in words if not w),
                               set(senses) | set(RG30_SENSES)))
    for sid in range(n):
        if not words[sid]:
            name = next(spare)
            words[sid].append(name)
            senses[name] = [sid]

    _bind_rg30(rng, parents, children, words, senses)

    return {
        "seed": seed,
        "level": level,
        "parents": parents,
        "instance": instance,
        "words": words,
        "senses": senses,
    }


def _bind_rg30(rng, parents, children, words, senses):
    from_rating = sorted(((rating, w1, w2) for w1, w2, rating in RG30_PAIRS), reverse=True)
    n = len(parents)
    first = {}

    def place_near(anchor, rating):
        if rating >= 3.4:
            return anchor
        hops = rng.randint(1, 2) if rating >= 2.5 else rng.randint(3, 4)
        return _walk(rng, parents, children, anchor, hops)

    for rating, w1, w2 in from_rating:
        related = rating >= 1.4
        if w1 not in first and w2 not in first:
            first[w1] = rng.randrange(1, n)
        if related and (w1 in first) != (w2 in first):
            known, other = (w1, w2) if w1 in first else (w2, w1)
            target = place_near(first[known], rating)
            first[other] = target if target != 0 else rng.randrange(1, n)
        for w in (w1, w2):
            if w not in first:
                first[w] = rng.randrange(1, n)
    for word, k in RG30_SENSES.items():
        chosen = [first[word]]
        while len(chosen) < k:
            sid = rng.randrange(1, n)
            if sid not in chosen:
                chosen.append(sid)
        for sid in chosen:
            words[sid].append(word)
        senses[word] = chosen


# RG-30 as embedded in taxsim.evaluation; restated here so that generating
# the fixture does not depend on the code under test.
RG30_PAIRS = (
    ("autograph", "shore", 0.06), ("noon", "string", 0.08),
    ("glass", "magician", 0.11), ("automobile", "wizard", 0.11),
    ("mound", "stove", 0.14), ("coast", "forest", 0.42),
    ("boy", "rooster", 0.44), ("cushion", "jewel", 0.45),
    ("coast", "hill", 0.87), ("boy", "sage", 0.96),
    ("mound", "shore", 0.97), ("automobile", "cushion", 0.97),
    ("crane", "rooster", 1.41), ("hill", "woodland", 1.48),
    ("brother", "lad", 1.66), ("crane", "implement", 1.68),
    ("magician", "oracle", 1.82), ("sage", "wizard", 2.46),
    ("oracle", "sage", 2.61), ("brother", "monk", 2.82),
    ("implement", "tool", 2.95), ("bird", "crane", 2.97),
    ("bird", "cock", 3.05), ("hill", "mound", 3.29),
    ("cord", "string", 3.41), ("midday", "noon", 3.42),
    ("glass", "tumbler", 3.45), ("serf", "slave", 3.46),
    ("cemetery", "graveyard", 3.88), ("magician", "wizard", 3.50),
)


def _gloss(rng, vocab):
    """A definition of 4-20 words and, half of the time, a quoted example."""
    text = " ".join(rng.choices(vocab, k=rng.randint(4, 20)))
    if rng.random() < 0.5:
        text += '; "' + " ".join(rng.choices(vocab, k=rng.randint(4, 10))) + '"'
    return text


def write_files(spec, out_dir):
    """Write data.noun, index.noun, frequencies.tsv and intended.json."""
    rng = random.Random(spec["seed"] * 7919 + 1)
    parents, words, instance = spec["parents"], spec["words"], spec["instance"]
    n = len(parents)
    children = [[] for _ in range(n)]
    for c, ps in enumerate(parents):
        for p in ps:
            children[p].append(c)
    vocab = _pseudo_words(rng, 3000, (), 1, 3, 0.0)
    file_order = list(range(n))
    rng.shuffle(file_order)

    # random draws in bulk, one list per record field
    lexfiles = rng.choices([f"{k:02d}" for k in range(3, 29)], k=n)
    lex_ids = iter(rng.choices("012", k=sum(len(w) for w in words)))
    extra_counts = rng.choices(range(4), weights=(55, 25, 12, 8), k=n)
    extra_kinds = iter(rng.choices(_OTHER_POINTERS, k=sum(extra_counts)))
    extra_targets = iter(rng.choices(range(n), k=sum(extra_counts)))
    glosses = rng.choices([_gloss(rng, vocab) for _ in range(GLOSS_POOL)], k=n)

    # Offsets are byte positions of each record, as in WordNet. A record's
    # length does not depend on offset values (always 8 digits), so lay out
    # templates first, then fill the offsets in.
    header = "".join(f"  {k} taxsim benchmark fixture in WordNet 3.0 data.noun format, "
                     f"seed {spec['seed']}\n" for k in range(1, 30))
    templates = []
    symbols = [None] * n
    for sid in file_order:
        up = "@i" if instance[sid] else "@"
        ptrs = [f"{up} {{:08d}} n 0000" for _ in parents[sid]]
        targets = [sid] + parents[sid]
        ptrs += ["~i {:08d} n 0000" if instance[c] else "~ {:08d} n 0000" for c in children[sid]]
        targets += children[sid]
        syms = {up}
        syms.update("~i" if instance[c] else "~" for c in children[sid])
        for _ in range(extra_counts[sid]):
            sym, pos = next(extra_kinds)
            target = next(extra_targets)
            syms.add(sym)
            if pos == "n":
                ptrs.append(f"{sym} {{:08d}} n 0000")
                targets.append(target)
            else:
                ptrs.append(f"{sym} {10**7 + target * 97:08d} v 0000")
        symbols[sid] = syms
        ws = words[sid]
        parts = ["{:08d}", lexfiles[sid], "n", f"{len(ws):02x}"]
        for w in ws:
            parts.append(w.capitalize() if instance[sid] else w)
            parts.append(next(lex_ids))
        parts.append(f"{len(ptrs):03d}")
        parts += ptrs
        templates.append((" ".join(parts) + " | " + glosses[sid] + "  \n", targets))

    offsets = [0] * n
    pos = len(header)
    for sid, (tmpl, targets) in zip(file_order, templates):
        offsets[sid] = pos
        pos += len(tmpl) + 2 * len(targets)
    with open(os.path.join(out_dir, "data.noun"), "w", encoding="ascii", newline="\n") as f:
        f.write(header)
        for tmpl, targets in templates:
            f.write(tmpl.format(*[offsets[t] for t in targets]))

    lines = []
    for lemma in sorted(spec["senses"]):
        sids = spec["senses"][lemma]
        syms = sorted(set().union(*(symbols[s] for s in sids)))
        lines.append(f"{lemma} n {len(sids)} {len(syms)} {' '.join(syms)} {len(sids)} "
                     f"{len(sids) // 2} "
                     + " ".join(f"{offsets[s]:08d}" for s in sids) + "  \n")
    with open(os.path.join(out_dir, "index.noun"), "w", encoding="ascii", newline="\n") as f:
        f.write("".join(f"  {k} taxsim benchmark fixture in WordNet 3.0 index.noun format\n"
                        for k in range(1, 30)))
        f.write("".join(lines))

    with open(os.path.join(out_dir, "frequencies.tsv"), "w", encoding="ascii") as f:
        for lemma in spec["senses"]:
            if lemma in RG30_SENSES or rng.random() < 0.4:
                f.write(f"{lemma}\t{int(rng.paretovariate(1.0))}\n")

    intended = dict(spec, offsets=[f"{o:08d}" for o in offsets])
    with open(os.path.join(out_dir, "intended.json"), "w", encoding="ascii") as f:
        f.write(json.dumps(intended, separators=(",", ":")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    gc.disable()  # millions of small lists; the collector only slows this script
    os.makedirs(args.out, exist_ok=True)
    write_files(generate(args.seed), args.out)


if __name__ == "__main__":
    main()
