"""Test-session set-up shared by every test module."""

import warnings

# When hypothesis falsifies an example it imports its patch writer, and with
# it libcst, whose import raises a DeprecationWarning.  Under ``-W error``
# that warning ends the session with an INTERNALERROR instead of a failure
# report, so the writer is imported once here with that warning class
# ignored.  Only this import is covered; no hypermachine code runs in it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst hypothesis prints no patch
        pass
