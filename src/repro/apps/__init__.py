"""The four applications of the study (Table 2): ``cactus``, ``gtc``,
``lbmhd`` and ``paratec``, each imported on first use."""

#: canonical app order (matches the paper's sections); every harness
#: runs them in this order through :mod:`repro.apps.catalogue`
APPS = ("lbmhd", "cactus", "gtc", "paratec")
