"""A rank program that reports what its process has imported.

It has no top-level imports: unpickling the program imports this module
in the rank, so anything imported here would count against the rank.
"""


def repro_modules(comm):
    """The ``repro`` modules loaded in this rank's process, sorted."""
    import sys
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))
