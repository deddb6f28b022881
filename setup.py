"""Build hook for the optional C nonce-search extension.

The extension only accelerates proof-of-work mining; every code path has a
pure-Python fallback, so a failed compile degrades to slower mining instead
of a broken install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "tfmlab._noncesearch",
            sources=["src/tfmlab/_noncesearch.c"],
            optional=True,
        )
    ]
)
