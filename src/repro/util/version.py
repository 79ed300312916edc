"""Single source of the package version string.

``repro --version`` and every persistent artefact (sweep reports, batch
service responses, result-store rows) record the same version so that a
store can be audited for entries written by older code.  The version is
read from the installed package metadata when available (``pip install
-e .``) and falls back to ``repro.__version__`` for plain
``PYTHONPATH=src`` checkouts.  The lookup scans the import path for
package metadata, so it runs once per process; every later call returns
the same string.  ``importlib.metadata`` itself is imported by the first
call, so ``import repro`` does not pay for it.
"""

from __future__ import annotations

from functools import cache

__all__ = ["repro_version"]


@cache
def repro_version() -> str:
    """The package version, from metadata or the in-tree fallback."""
    from importlib import metadata

    try:
        return metadata.version("repro")
    except metadata.PackageNotFoundError:
        import repro

        return repro.__version__
