//! cca-bench: criterion benchmark harness (see benches/).

#![forbid(unsafe_code)]
