//! The wire's JSON types under the names this crate first exported them
//! by. The workspace has one JSON codec: the serde shim's `Value` tree
//! with its renderer, and `serde_json`'s strict parser (see
//! [`crate::proto`] for the protocol's rules on top of it). In-workspace
//! code uses those crates directly.

pub use serde_json::{from_str as parse, Value as Json};
