"""Evolutionary training of MLP classifiers on heart-rate-variability features.

The package covers the full pipeline: cleaning a raw single-channel
signal into RR intervals, computing thirteen variability features,
globally searching network weights with cluster- and opposition-
enhanced differential evolution, refining them with one of six
gradient methods, and scoring everything under stratified k-fold
cross-validation.

Names are imported from the submodules (`codel.cli`, `codel.training`,
`codel.local_search`, ...); the package itself exports only
`__version__`.
"""

__version__ = "0.1.0"
