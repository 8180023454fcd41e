"""Exact dimension computations for polynomial neural network varieties.

The modules are the API; the package root holds only `__version__`.  `network`
gauges the coefficient map, `rank` ranks its Jacobian exactly over Q or F_p,
`theory` gives expected dimensions and verdicts, `veronese` the Veronese lab,
`scan` and `cli` the reports, over `domains`, `errors` and `poly`.
"""

__version__ = "0.1.0"
