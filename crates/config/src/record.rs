//! One declaration per JSON record.
//!
//! [`config_record!`](crate::config_record) turns a struct's field list
//! into its encoder, its decoder and its key list, the way Thrift's one
//! IDL type gives production Turbine both directions of its JSON codec
//! (paper §III-A). Every field decodes through [`ConfigField`], so an
//! integer that does not fit its type is an error rather than a wrapped
//! number, and the error names the field and where it sits.

use crate::value::ConfigValue;
use std::fmt;
use turbine_types::{Duration, Priority};

/// Why a value did not decode, and where it sits in the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// Keys and `[i]` indices, from the value at fault outwards.
    path: Vec<String>,
    /// The message is about the object at `path` (an unknown key), not
    /// about the value of a field.
    object: bool,
    reason: String,
}

impl FieldError {
    /// A value that does not fit its field.
    pub fn value(reason: impl Into<String>) -> Self {
        FieldError {
            path: Vec::new(),
            object: false,
            reason: reason.into(),
        }
    }

    /// A message about the object being decoded as a whole.
    pub fn object(reason: impl Into<String>) -> Self {
        FieldError {
            object: true,
            ..FieldError::value(reason)
        }
    }

    /// The same error one level further out: under `segment`, a key or an
    /// `[i]` index.
    pub fn at(mut self, segment: impl Into<String>) -> Self {
        self.path.push(segment.into());
        self
    }
}

/// `jobs[0]: field 'tasks' out of range: -1`, `host: unknown key 'cpus'
/// (one of: cpu, memory_gb)`: the object path, then the field (its
/// innermost key and any indices after it), then the reason.
impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |segments: &[String]| {
            segments.iter().rev().fold(String::new(), |mut out, s| {
                if !out.is_empty() && !s.starts_with('[') {
                    out.push('.');
                }
                out.push_str(s);
                out
            })
        };
        let field_len = match self.object {
            true => 0,
            false => self
                .path
                .iter()
                .position(|s| !s.starts_with('['))
                .map_or(0, |i| i + 1),
        };
        let (field, object) = self.path.split_at(field_len);
        let (object, field) = (join(object), join(field));
        if !object.is_empty() {
            write!(f, "{object}: ")?;
        }
        if !field.is_empty() {
            write!(f, "field '{field}' ")?;
        }
        f.write_str(&self.reason)
    }
}

impl std::error::Error for FieldError {}

/// A type with one JSON form: how a record field of this type decodes and
/// encodes.
pub trait ConfigField: Sized {
    /// Decode the value stored at the field's key.
    fn decode(value: &ConfigValue) -> Result<Self, FieldError>;
    /// Encode for storing at the field's key; `Null` leaves the key out.
    fn encode(&self) -> ConfigValue;
    /// The value an absent (or `null`) key stands for, if the type has one.
    fn absent() -> Option<Self> {
        None
    }
}

/// A fieldless enum written as one word per variant; see
/// [`config_words!`](crate::config_words).
pub trait ConfigWord: Copy + 'static {
    /// The words, in declaration order.
    const WORDS: &'static [&'static str];
    /// This variant's word.
    fn word(self) -> &'static str;
    /// The variant a word names.
    fn from_word(word: &str) -> Option<Self>;
}

/// The field at `key` (a `.`-separated path) of `record`. An absent or
/// `null` key is [`ConfigField::absent`], or an error naming the key.
pub fn field<T: ConfigField>(record: &ConfigValue, key: &str) -> Result<T, FieldError> {
    match record.get_path(key) {
        Some(ConfigValue::Null) | None => {
            T::absent().ok_or_else(|| FieldError::value("is missing").at(key))
        }
        Some(v) => T::decode(v).map_err(|e| e.at(key)),
    }
}

/// The fields of one object, read by key, for an object whose keys depend
/// on a value in it (a timeline event's `action`): [`Fields::done`]
/// refuses a key that no read asked for.
pub struct Fields<'a> {
    object: &'a ConfigValue,
    read: Vec<&'a str>,
}

impl<'a> Fields<'a> {
    /// Read the fields of `object`, which must be a JSON object.
    pub fn of(object: &'a ConfigValue) -> Result<Self, FieldError> {
        match object.is_map() {
            true => Ok(Fields {
                object,
                read: Vec::new(),
            }),
            false => Err(FieldError::value("must be an object")),
        }
    }

    /// The field at `key`, decoded as [`field`] does.
    pub fn get<T: ConfigField>(&mut self, key: &'a str) -> Result<T, FieldError> {
        self.read.push(key);
        field(self.object, key)
    }

    /// Refuse any key of the object that no [`Fields::get`] asked for.
    pub fn done(self) -> Result<(), FieldError> {
        check_closed(self.object, &self.read)
    }
}

/// Decode each item of a JSON array; an error names the item's index.
pub fn each<T>(
    items: &[ConfigValue],
    decode: impl Fn(&ConfigValue) -> Result<T, FieldError>,
) -> Result<Vec<T>, FieldError> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| decode(item).map_err(|e| e.at(format!("[{i}]"))))
        .collect()
}

/// Store `value` at `key` (a `.`-separated path) unless it is `null`.
pub fn put(record: &mut ConfigValue, key: &str, value: ConfigValue) {
    match value {
        ConfigValue::Null => {}
        value if key.contains('.') => record.insert_path(key, value),
        value => {
            record.insert(key, value);
        }
    }
}

/// Require `record` to be an object whose keys are all named by `keys`, so
/// a misspelled key in a hand-written file fails loudly instead of falling
/// back to a default. A dotted entry names a nested object's keys.
pub fn check_closed(record: &ConfigValue, keys: &[&str]) -> Result<(), FieldError> {
    let map = record
        .as_map()
        .ok_or_else(|| FieldError::value("must be an object"))?;
    for (key, value) in map {
        let nested: Vec<&str> = keys
            .iter()
            .filter_map(|k| k.strip_prefix(key.as_str())?.strip_prefix('.'))
            .collect();
        if !nested.is_empty() {
            check_closed(value, &nested).map_err(|e| e.at(key.as_str()))?;
        } else if !keys.contains(&key.as_str()) {
            let mut known: Vec<&str> = keys.iter().filter_map(|k| k.split('.').next()).collect();
            known.dedup();
            return Err(FieldError::object(format!(
                "unknown key '{key}' (one of: {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

/// Decode a word enum's value.
pub fn decode_word<T: ConfigWord>(value: &ConfigValue) -> Result<T, FieldError> {
    let word = value
        .as_str()
        .ok_or_else(|| FieldError::value("must be a string"))?;
    T::from_word(word).ok_or_else(|| {
        FieldError::value(format!(
            "has unknown value '{word}' (one of: {})",
            T::WORDS.join(", ")
        ))
    })
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl ConfigField for $t {
            fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
                let n = value
                    .as_int()
                    .ok_or_else(|| FieldError::value("must be an integer"))?;
                <$t>::try_from(n).map_err(|_| FieldError::value(format!("out of range: {n}")))
            }
            #[allow(clippy::unnecessary_cast)]
            fn encode(&self) -> ConfigValue {
                ConfigValue::Int(*self as i64)
            }
        }
    )*};
}

integers!(u32, u64, usize, i64);

impl ConfigField for f64 {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        value
            .as_float()
            .filter(|f| f.is_finite())
            .ok_or_else(|| FieldError::value("must be a finite number"))
    }
    fn encode(&self) -> ConfigValue {
        ConfigValue::Float(*self)
    }
}

impl ConfigField for bool {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        value
            .as_bool()
            .ok_or_else(|| FieldError::value("must be a boolean"))
    }
    fn encode(&self) -> ConfigValue {
        ConfigValue::Bool(*self)
    }
}

impl ConfigField for String {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| FieldError::value("must be a string"))
    }
    fn encode(&self) -> ConfigValue {
        ConfigValue::Str(self.clone())
    }
}

/// Any JSON, kept as it is (a section another parser reads).
impl ConfigField for ConfigValue {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        Ok(value.clone())
    }
    fn encode(&self) -> ConfigValue {
        self.clone()
    }
}

impl<T: ConfigField> ConfigField for Vec<T> {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        let items = value
            .as_array()
            .ok_or_else(|| FieldError::value("must be an array"))?;
        each(items, T::decode)
    }
    fn encode(&self) -> ConfigValue {
        ConfigValue::Array(self.iter().map(T::encode).collect())
    }
}

impl<T: ConfigField> ConfigField for Option<T> {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        T::decode(value).map(Some)
    }
    fn encode(&self) -> ConfigValue {
        self.as_ref().map_or(ConfigValue::Null, T::encode)
    }
    fn absent() -> Option<Self> {
        Some(None)
    }
}

/// A span written as whole minutes (`for_mins`, `duration_mins`): an
/// unsigned count small enough that [`Duration::from_mins`] cannot
/// overflow on it.
impl ConfigField for Duration {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        let mins = u64::decode(value)?;
        if mins > u64::MAX / 60_000 {
            return Err(FieldError::value(format!("out of range: {mins} minutes")));
        }
        Ok(Duration::from_mins(mins))
    }
    fn encode(&self) -> ConfigValue {
        self.as_mins().encode()
    }
}

/// A `u64` that holds a bit pattern (a seed), stored as the `i64` with the
/// same bits so that every value round-trips: `seed via Bits`.
#[derive(Debug, Clone, Copy)]
pub struct Bits(pub u64);

impl ConfigField for Bits {
    fn decode(value: &ConfigValue) -> Result<Self, FieldError> {
        Ok(Bits(i64::decode(value)? as u64))
    }
    fn encode(&self) -> ConfigValue {
        ConfigValue::Int(self.0 as i64)
    }
}

/// Implement [`ConfigField`] for a struct from **one** field list: each
/// field's key, its default, and (through its type) its range-checked
/// decode and its encode.
///
/// `Type closed { .. }` refuses a key the list does not name, so a typo in
/// a hand-edited file fails loudly; `Type open { .. }` ignores one (an
/// Oncall layer may add keys to a job config). A field is written as
///
/// * `name` — stored at `"name"`; an absent or `null` key is an error,
///   unless the type has an absent value (an `Option` is `None`);
/// * `name as "a.b"` — stored at a `.`-separated path (a nested object);
/// * `name = expr` — an absent or `null` key decodes to `expr`;
/// * `name via Codec` — stored as `Codec(name)`, a [`ConfigField`] tuple
///   newtype over the (`Copy`) field, e.g. [`Bits`];
/// * `name: Type` — the same, typed for a `derived` expression.
///
/// `derived { field: expr, .. }` names fields that are not stored; `expr`
/// rebuilds each from the decoded fields and may use `?` on a
/// [`FieldError`]. The encoder destructures `self` exhaustively, so a
/// field named nowhere does not compile.
///
/// ```
/// use turbine_config::{config_record, parse, ConfigField};
///
/// #[derive(Debug, PartialEq)]
/// struct Host { name: String, cpu: f64, slots: u32 }
/// config_record!(Host closed { name, cpu as "shape.cpu", slots = 4 });
///
/// let host = Host::decode(&parse(r#"{"name": "h0", "shape": {"cpu": 8.0}}"#).unwrap());
/// assert_eq!(host, Ok(Host { name: "h0".into(), cpu: 8.0, slots: 4 }));
/// let bad = parse(r#"{"name": "h0", "shape": {"cpus": 8.0}, "slots": -1}"#).unwrap();
/// assert_eq!(Host::decode(&bad).unwrap_err().to_string(), "shape: unknown key 'cpus' (one of: cpu)");
/// ```
///
/// ```compile_fail
/// struct Host { name: String, cpu: f64 }
/// turbine_config::config_record!(Host closed { name });
/// ```
#[macro_export]
macro_rules! config_record {
    (
        $ty:ident $closed:ident {
            $($field:ident $(as $key:literal)? $(via $codec:ident)? $(: $fty:ty)?
                $(= $default:expr)?),* $(,)?
        }
        $(derived { $($derived:ident : $rebuild:expr),* $(,)? })?
    ) => {
        impl $crate::ConfigField for $ty {
            fn decode(value: &$crate::ConfigValue) -> Result<Self, $crate::FieldError> {
                $crate::config_record!(@check $closed value,
                    &[$($crate::config_record!(@key $field $($key)?)),*]);
                $(let $field $(: $fty)? = $crate::config_record!(@get value,
                    $crate::config_record!(@key $field $($key)?) $(, via $codec)? $(, = $default)?);)*
                $($(let $derived = $rebuild;)*)?
                Ok($ty { $($field,)* $($($derived,)*)? })
            }

            fn encode(&self) -> $crate::ConfigValue {
                let $ty { $($field,)* $($($derived: _,)*)? } = self;
                let mut value = $crate::ConfigValue::empty_map();
                $($crate::record::put(
                    &mut value,
                    $crate::config_record!(@key $field $($key)?),
                    $crate::config_record!(@put $field $(, via $codec)?),
                );)*
                value
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
    (@check closed $v:ident, $keys:expr) => { $crate::record::check_closed($v, $keys)? };
    (@check open $v:ident, $keys:expr) => {
        if !$v.is_map() {
            return Err($crate::FieldError::value("must be an object"));
        }
    };
    (@get $v:ident, $key:expr) => { $crate::record::field($v, $key)? };
    (@get $v:ident, $key:expr, = $default:expr) => {
        $crate::record::field::<Option<_>>($v, $key)?.unwrap_or_else(|| $default)
    };
    (@get $v:ident, $key:expr, via $codec:ident) => { $crate::record::field::<$codec>($v, $key)?.0 };
    (@get $v:ident, $key:expr, via $codec:ident, = $default:expr) => {
        $crate::record::field::<Option<$codec>>($v, $key)?.map_or($default, |c| c.0)
    };
    (@put $field:ident) => { $crate::ConfigField::encode($field) };
    (@put $field:ident, via $codec:ident) => { $crate::ConfigField::encode(&$codec(*$field)) };
}

/// Implement [`ConfigField`] and [`ConfigWord`] for a fieldless enum from
/// one `Variant => "word"` table. A word outside the table is an error that
/// lists the table.
#[macro_export]
macro_rules! config_words {
    ($ty:ident { $($variant:ident => $word:literal),+ $(,)? }) => {
        impl $crate::ConfigWord for $ty {
            const WORDS: &'static [&'static str] = &[$($word),+];
            fn word(self) -> &'static str {
                match self {
                    $(Self::$variant => $word,)+
                }
            }
            fn from_word(word: &str) -> Option<Self> {
                match word {
                    $($word => Some(Self::$variant),)+
                    _ => None,
                }
            }
        }

        impl $crate::ConfigField for $ty {
            fn decode(value: &$crate::ConfigValue) -> Result<Self, $crate::FieldError> {
                $crate::record::decode_word(value)
            }
            fn encode(&self) -> $crate::ConfigValue {
                $crate::ConfigValue::Str($crate::ConfigWord::word(*self).to_string())
            }
        }
    };
}

config_words!(Priority {
    Low => "low",
    Normal => "normal",
    High => "high",
    Privileged => "privileged",
});
