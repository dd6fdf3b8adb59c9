"""Rank programs that report what their process has imported.

They have no top-level imports: unpickling a program imports this
module in the rank, so anything imported here would count against the
rank.
"""

#: what a rank imports before it can read the parent's code table: the
#: package root and the bootstrap, compiled from source in every rank
BOOT_MODULES = frozenset({"repro", "repro._bootstrap"})


def repro_modules(comm):
    """The ``repro`` modules loaded in this rank's process, sorted."""
    import sys
    return sorted(name for name in sys.modules
                  if name == "repro" or name.startswith("repro."))


def served_modules(comm):
    """Each ``repro`` module loaded in this rank's process, mapped to
    whether the parent's code table served it."""
    import sys
    from repro._bootstrap import ShippedLoader
    return {name: isinstance(getattr(mod.__spec__, "loader", None),
                             ShippedLoader)
            for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")}
