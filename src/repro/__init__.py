"""repro: reproduction of Oliker et al., "Scientific Computations on
Modern Parallel Vector Systems" (SC 2004).

Subpackages
-----------
``repro.machine``   models of the Power3/Power4/Altix/ES/X1 platforms
``repro.runtime``   simulated SPMD runtime (MPI-like + CAF-like layers)
``repro.perf``      work profiles, porting specs, performance prediction
``repro.apps``      the four applications: lbmhd, paratec, cactus, gtc
``repro.experiments``  drivers regenerating every paper table and figure

Subpackages are imported on first use, not here: a process-backend rank
re-imports its program's modules, and should pay for nothing else.
"""

__version__ = "1.0.0"
