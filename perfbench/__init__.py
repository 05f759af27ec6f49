"""The exsim benchmark: workloads, tracing and the command-line run; see README.md."""
