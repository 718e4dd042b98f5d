"""No code: kronecker_test examines its samples in one loop of its own.
The module stays because perfbench/tracer.py imports every module that its
TRACED_MODULES names, parallel included."""
