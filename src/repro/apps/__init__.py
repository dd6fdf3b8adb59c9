"""The four applications of the study (Table 2): ``cactus``, ``gtc``,
``lbmhd`` and ``paratec``, each imported on first use."""
