"""The repository's end-to-end benchmark (see ``perfbench/run.py``)."""
