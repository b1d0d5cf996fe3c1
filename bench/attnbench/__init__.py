"""Benchmark harness for attnalign.

The harness drives the public ``attnalign`` commands in-process through
``attnalign.cli.main``, one command at a time (a closed loop with a single
client), checks their outputs, and turns the recorded command times into
end-to-end metrics. A separate traced run wraps the library's public
functions from here, outside ``src/``, and turns the recorded spans into
per-layer metrics.
"""
