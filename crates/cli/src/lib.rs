//! The command-line front end shared by `hybrid-cdn` and the experiment
//! binaries of `cdn-bench`: one strict flag parser ([`args`]) and one
//! output sink ([`sink`]).

pub mod args;
pub mod sink;
