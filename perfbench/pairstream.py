"""The seeded word-pair stream shared by the pairs-ic and pairs-path workloads.

Pairs come in blocks of ten with a fixed make-up, shuffled inside the block,
so that every run does the same mix of work whatever the seed:

    senses (w1 x w2)   pairs per block   related   unrelated
    2 x 1              7                 2         5
    3 x 1              3                 3         0

That is 2.3 sense pairs per word pair on average (maximum 3) and 50 %
related pairs. A related pair takes w2 from a synset reached by a walk of
1, 2, 3 or 4 hops (in turn) from a sense of w1; an unrelated pair draws both
words independently. No word pair repeats, the two words share no synset,
and no sense pair (in either order) appears twice in the stream, so every
lcs and path query of a run is distinct.

The make-up keeps each reported percentile well inside a group of pairs
with the same amount of work, never on the edge between two. By sense pairs
(what IC scoring costs), 70 % have 2 and 30 % have 3; by unrelated sense
pairs (the long path queries), 20 % have 1 and 80 % have 2. So p50 sits at
least 20 points from an edge and p90 inside the top group, on both
workloads.
"""

import random

from fixture import RG30_SENSES, _walk

BLOCK = (
    (2, 1, True), (2, 1, True), (2, 1, False), (2, 1, False), (2, 1, False),
    (2, 1, False), (2, 1, False),
    (3, 1, True), (3, 1, True), (3, 1, True),
)


# attempts at one pair before giving up; the stream runs dry of 1-hop
# related 3x1 pairs after about 69,000 pairs, hence MAX_PAIRS
MAX_TRIES = 100_000
MAX_PAIRS = 55_000


def pair_stream(intended, oracle, seed, count):
    """First `count` pairs of the stream: a list of (w1, w2, related, hops)."""
    rng = random.Random(seed * 104729 + 3)
    senses = intended["senses"]
    words = intended["words"]
    pools = {}
    for lemma, sids in senses.items():
        if lemma not in RG30_SENSES and len(sids) <= 3:
            pools.setdefault(len(sids), []).append(lemma)
    seen_words = set()
    seen_senses = set()
    out = []
    related_count = 0
    while len(out) < count:
        block = list(BLOCK)
        rng.shuffle(block)
        for n1, n2, related in block:
            hops = 1 + related_count % 4 if related else 0
            for _ in range(MAX_TRIES):
                w1 = rng.choice(pools[n1])
                if related:
                    end = _walk(rng, oracle.parents, oracle.children,
                                rng.choice(senses[w1]), hops)
                    options = [w for w in words[end] if w != w1 and w not in RG30_SENSES
                               and len(senses[w]) == n2]
                    if not options:
                        continue
                    w2 = rng.choice(options)
                else:
                    w2 = rng.choice(pools[n2])
                s1, s2 = senses[w1], senses[w2]
                if set(s1) & set(s2) or (w1, w2) in seen_words or (w2, w1) in seen_words:
                    continue
                keys = [(a, b) if a < b else (b, a) for a in s1 for b in s2]
                if any(k in seen_senses for k in keys):
                    continue
                seen_words.add((w1, w2))
                seen_senses.update(keys)
                break
            else:
                raise ValueError(f"pair stream exhausted after {len(out)} pairs")
            related_count += related
            out.append((w1, w2, related, hops))
    return out[:count]
