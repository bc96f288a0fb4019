"""Taxonomy semantic similarity: WordNet noun DAG, IC models, similarity
measures, and benchmark evaluation against human ratings. Use it through
its modules, such as ``taxsim.wordnet`` and ``taxsim.similarity``."""
