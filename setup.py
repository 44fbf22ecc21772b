from setuptools import setup

# Kept alongside pyproject.toml so `pip install -e .` works on
# environments without the `wheel` package (legacy setup.py develop
# path); all metadata lives in pyproject.toml.
setup()
