"""Exception types shared across the package."""


class TaxonomyError(Exception):
    """Base class for all taxsim errors."""


class UnknownSynsetError(TaxonomyError, KeyError):
    """A synset id was not found in the taxonomy."""

    def __init__(self, synset_id):
        super().__init__(synset_id)
        self.synset_id = synset_id

    def __str__(self):
        return f"unknown synset id: {self.synset_id!r}"


class ParseError(TaxonomyError):
    """A source file line could not be parsed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class StructureError(TaxonomyError):
    """The hypernym graph is not a single-rooted DAG."""


class IntegrityError(TaxonomyError):
    """A reference points at a synset that does not exist."""


class UnusableModelError(TaxonomyError):
    """The requested model is undefined on this input (e.g. empty corpus)."""


class InvalidCombinationError(TaxonomyError):
    """Measure and IC table cannot be combined (e.g. non-normalized IC
    where a normalized one is required)."""


class OutOfVocabularyError(TaxonomyError, KeyError):
    """A lemma has no noun sense in the loaded index."""

    def __init__(self, lemma):
        super().__init__(lemma)
        self.lemma = lemma

    def __str__(self):
        return f"out-of-vocabulary lemma: {self.lemma!r}"


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (fewer than two points, or a
    constant or non-finite input vector)."""
