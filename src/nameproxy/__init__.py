"""Race/ethnicity proxy modeling from names and geography.

The package bundles the standard Bayes predictors (BISG and BIFSG, plus
geography augmentation of any name-only model), a from-scratch
character-level bidirectional LSTM, an equal-weight ensemble, the table
construction machinery they all share, and an evaluation harness for
benchmarking prediction files against ground truth.  Each is imported
from its own module (``nameproxy.core``, ``nameproxy.bayes``, ...).
"""

__version__ = "0.1.0"
