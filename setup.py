"""Build script for the optional compiled kernels.

The extension is one hand-written C file, built by the system C
compiler.  The package works without it (pure-Python fallback), so a
missing compiler only skips the build.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("qspecial._kernels", ["src/qspecial/_kernels.c"], optional=True)])
