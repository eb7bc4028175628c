//! Hierarchical job configuration for Turbine (paper §III-A).
//!
//! Turbine stores job configuration as layered JSON documents: a Base level,
//! a Provisioner level, a Scaler level, and an Oncall level, each taking
//! precedence over the previous ones. In production the typed schema is
//! enforced by Thrift and serialized to JSON; here the typed schema is
//! [`JobConfig`] (compile-time checked Rust) and the JSON representation is
//! [`ConfigValue`], with a full text parser/serializer so configurations can
//! be durably logged and recovered.
//!
//! The heart of the crate is [`merge::layer_configs`] — the paper's
//! Algorithm 1 — which recursively merges nested maps while letting the top
//! layer override the bottom one. Each typed record's JSON form is declared
//! once, as a field list given to [`config_record!`].

pub mod job;
pub mod level;
pub mod merge;
pub mod record;
pub mod text;
pub mod value;

pub use job::{JobConfig, MemoryEnforcement, PackageSpec, ResiliencyClass, ValidationError};
pub use level::ConfigLevel;
pub use merge::{layer_all, layer_configs};
pub use record::{Bits, ConfigField, ConfigWord, FieldError};
pub use text::{parse, to_text, ParseError};
pub use value::{ConfigMap, ConfigValue};
