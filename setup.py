"""Setuptools shim.

The project metadata lives in ``pyproject.toml``; this file only keeps
``python setup.py develop`` working for front ends that predate PEP 660
editable installs.
"""

from setuptools import setup

setup()
