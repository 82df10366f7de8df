"""Make a failing hypothesis test readable under ``-W error``.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to write its failure patch.  That module
imports ``libcst``, whose use of ``mypy_extensions.TypedDict`` raises a
DeprecationWarning; under ``-W error`` the run then ends in an
INTERNALERROR that names neither the test nor its falsifying example.
Importing the module once here, with that one warning ignored, leaves it
in ``sys.modules`` for the plugin.  Without ``libcst`` the plugin writes
no patch and nothing needs importing.
"""

import importlib
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:
        pass
