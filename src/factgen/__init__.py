"""Generative closed information extraction toolkit.

Builds KB-grounded IE datasets from entity-linked sentences (distant
supervision, entailment filtering, balanced negatives, splits), constructs
linearized and auxiliary training targets, decodes with trie-constrained
beam search, and scores predictions.

Import each name from the module that defines it, e.g.
``from factgen.kb import KbStore``; importing the package imports no module.
"""

__version__ = "0.1.0"
