//! The JSON-like configuration value model.
//!
//! Turbine serializes Thrift-typed configurations to JSON and layers them
//! with a generic merge (paper §III-A). [`ConfigValue`] is that JSON model.
//! Maps are ordered by key ([`ConfigMap`]) so serialization — and therefore
//! the WAL and all test expectations — is deterministic.

use std::fmt;

/// A JSON object: its entries in one vector, sorted by key, no key twice.
/// Iteration, equality, text and snapshot bytes are those of a
/// `BTreeMap<String, ConfigValue>`; what differs is the footprint. Job
/// configs are a dozen keys with two or three nested objects, held three
/// times per job: as B-tree nodes that is six 600–700 B allocations per
/// config, as sorted vectors one exact-sized allocation per object, and a
/// look-up is a binary search over one cache-resident run.
#[derive(Clone, PartialEq, Default)]
pub struct ConfigMap {
    entries: Vec<(String, ConfigValue)>,
}

impl ConfigMap {
    /// An empty map. Allocates nothing.
    pub fn new() -> Self {
        ConfigMap::default()
    }

    fn search(&self, key: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Value at `key`.
    pub fn get(&self, key: &str) -> Option<&ConfigValue> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable value at `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut ConfigValue> {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.search(key).is_ok()
    }

    /// Set `key` to `value`; returns the value it replaced, if any.
    pub fn insert(&mut self, key: String, value: ConfigValue) -> Option<ConfigValue> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value at `key`, which is set to `default()` first if absent.
    pub fn get_or_insert_with(
        &mut self,
        key: &str,
        default: impl FnOnce() -> ConfigValue,
    ) -> &mut ConfigValue {
        let i = match self.search(key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key.to_string(), default()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Remove `key`; returns its value, if it was present.
    pub fn remove(&mut self, key: &str) -> Option<ConfigValue> {
        self.search(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Entries in key order.
    pub fn iter(&self) -> <&ConfigMap as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// Keys, ascending.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &String> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// `top` layered over `self`: one pass over the two sorted runs. A key
    /// on one side only keeps its value; where both sides have it,
    /// `both(bottom, top)` decides.
    pub fn layered(
        &self,
        top: &ConfigMap,
        both: impl Fn(&ConfigValue, &ConfigValue) -> ConfigValue,
    ) -> ConfigMap {
        use std::cmp::Ordering;
        let mut entries = Vec::with_capacity(self.len().max(top.len()));
        let (mut below, mut above) = (
            self.entries.iter().peekable(),
            top.entries.iter().peekable(),
        );
        loop {
            let order = match (below.peek(), above.peek()) {
                (Some(b), Some(t)) => b.0.cmp(&t.0),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            entries.push(match order {
                Ordering::Less => below.next().expect("peeked").clone(),
                Ordering::Greater => above.next().expect("peeked").clone(),
                Ordering::Equal => {
                    let ((key, b), (_, t)) =
                        (below.next().expect("peeked"), above.next().expect("peeked"));
                    (key.clone(), both(b, t))
                }
            });
        }
        // Merged configs stay resident: keys the sides did not share grew
        // the vector past its reservation, and the slack goes back.
        entries.shrink_to_fit();
        ConfigMap { entries }
    }
}

/// As a `BTreeMap` prints: `{"key": value, ..}`.
impl fmt::Debug for ConfigMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a ConfigMap {
    type Item = (&'a String, &'a ConfigValue);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (String, ConfigValue)>,
        fn(&'a (String, ConfigValue)) -> (&'a String, &'a ConfigValue),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// Any order, any repeats: entries are sorted and the last value given for
/// a key wins, as inserting them one by one would have it.
impl FromIterator<(String, ConfigValue)> for ConfigMap {
    fn from_iter<I: IntoIterator<Item = (String, ConfigValue)>>(iter: I) -> Self {
        let mut entries: Vec<(String, ConfigValue)> = iter.into_iter().collect();
        if !entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, earlier| {
                let repeat = later.0 == earlier.0;
                if repeat {
                    std::mem::swap(later, earlier);
                }
                repeat
            });
        }
        ConfigMap { entries }
    }
}

/// A JSON-like configuration value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ConfigValue {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON integer (Turbine configs use integers for counts and versions).
    Int(i64),
    /// JSON floating-point number.
    Float(f64),
    /// JSON string.
    Str(String),
    /// JSON array.
    Array(Vec<ConfigValue>),
    /// JSON object with deterministic (sorted) key order.
    Map(ConfigMap),
}

impl ConfigValue {
    /// An empty map — the starting point for building configs.
    pub fn empty_map() -> ConfigValue {
        ConfigValue::Map(ConfigMap::new())
    }

    /// True if this value is a map (the only values Algorithm 1 recurses
    /// into).
    pub fn is_map(&self) -> bool {
        matches!(self, ConfigValue::Map(_))
    }

    /// Borrow as a map, if it is one.
    pub fn as_map(&self) -> Option<&ConfigMap> {
        match self {
            ConfigValue::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Mutably borrow as a map, if it is one.
    pub fn as_map_mut(&mut self) -> Option<&mut ConfigMap> {
        match self {
            ConfigValue::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Borrow as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfigValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// As an integer. `Float` values that are exactly integral convert too,
    /// since layered configs may round-trip counts through floats.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ConfigValue::Int(i) => Some(*i),
            ConfigValue::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// As a float (integers widen).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            ConfigValue::Float(f) => Some(*f),
            ConfigValue::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// As a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ConfigValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Borrow as an array, if it is one.
    pub fn as_array(&self) -> Option<&[ConfigValue]> {
        match self {
            ConfigValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Value at `key`, if this is a map containing it.
    pub fn get(&self, key: &str) -> Option<&ConfigValue> {
        self.as_map().and_then(|m| m.get(key))
    }

    /// Value at a `.`-separated path, e.g. `"package.version"`.
    pub fn get_path(&self, path: &str) -> Option<&ConfigValue> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = cur.get(seg)?;
        }
        Some(cur)
    }

    /// Insert `value` at `key`, converting `self` to a map if it is `Null`.
    /// Panics if `self` is a non-map, non-null scalar: that indicates a
    /// schema bug, not a runtime condition.
    pub fn insert(&mut self, key: impl Into<String>, value: ConfigValue) -> &mut Self {
        if matches!(self, ConfigValue::Null) {
            *self = ConfigValue::empty_map();
        }
        self.as_map_mut()
            .expect("insert target must be a map or null")
            .insert(key.into(), value);
        self
    }

    /// Insert `value` at a `.`-separated path, creating intermediate maps.
    /// Existing non-map intermediates are replaced by maps (mirroring how a
    /// higher layer overrides a scalar with a subtree).
    pub fn insert_path(&mut self, path: &str, value: ConfigValue) {
        let mut cur = self;
        let segs: Vec<&str> = path.split('.').collect();
        for (i, seg) in segs.iter().enumerate() {
            if matches!(cur, ConfigValue::Null) || !cur.is_map() {
                *cur = ConfigValue::empty_map();
            }
            let map = cur.as_map_mut().expect("just ensured map");
            if i + 1 == segs.len() {
                map.insert((*seg).to_string(), value);
                return;
            }
            cur = map.get_or_insert_with(seg, ConfigValue::empty_map);
        }
    }

    /// Number of entries if a map or array; 0 otherwise.
    pub fn len(&self) -> usize {
        match self {
            ConfigValue::Map(m) => m.len(),
            ConfigValue::Array(a) => a.len(),
            _ => 0,
        }
    }

    /// True if a map/array with no entries, or any scalar.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<bool> for ConfigValue {
    fn from(v: bool) -> Self {
        ConfigValue::Bool(v)
    }
}
impl From<i64> for ConfigValue {
    fn from(v: i64) -> Self {
        ConfigValue::Int(v)
    }
}
impl From<u32> for ConfigValue {
    fn from(v: u32) -> Self {
        ConfigValue::Int(v as i64)
    }
}
impl From<f64> for ConfigValue {
    fn from(v: f64) -> Self {
        ConfigValue::Float(v)
    }
}
impl From<&str> for ConfigValue {
    fn from(v: &str) -> Self {
        ConfigValue::Str(v.to_string())
    }
}
impl From<String> for ConfigValue {
    fn from(v: String) -> Self {
        ConfigValue::Str(v)
    }
}

impl fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::text::to_text(self))
    }
}

// By hand: the decoded pairs go back through `FromIterator`, which accepts
// them in any order and lets a repeated key's last value win.
impl turbine_types::Snap for ConfigMap {
    fn snap(&self, w: &mut turbine_types::SnapWriter) {
        w.put(&self.entries);
    }

    fn unsnap(r: &mut turbine_types::SnapReader<'_>) -> Result<Self, turbine_types::SnapError> {
        Ok(r.get::<Vec<(String, ConfigValue)>>()?.into_iter().collect())
    }
}

turbine_types::snap_enum!(ConfigValue {
    0 => Null,
    1 => Bool(b),
    2 => Int(i),
    3 => Float(f),
    4 => Str(s),
    5 => Array(items),
    6 => Map(map),
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_reject_wrong_types() {
        assert_eq!(ConfigValue::Int(3).as_str(), None);
        assert_eq!(ConfigValue::Str("x".into()).as_int(), None);
        assert_eq!(ConfigValue::Bool(true).as_float(), None);
        assert_eq!(ConfigValue::Null.get("k"), None);
    }

    #[test]
    fn integral_float_converts_to_int() {
        assert_eq!(ConfigValue::Float(4.0).as_int(), Some(4));
        assert_eq!(ConfigValue::Float(4.5).as_int(), None);
        assert_eq!(ConfigValue::Float(f64::INFINITY).as_int(), None);
    }

    #[test]
    fn int_widens_to_float() {
        assert_eq!(ConfigValue::Int(4).as_float(), Some(4.0));
    }

    #[test]
    fn path_get_and_insert() {
        let mut v = ConfigValue::empty_map();
        v.insert_path("package.version", ConfigValue::Int(7));
        v.insert_path("package.name", "scuba_tailer".into());
        assert_eq!(
            v.get_path("package.version").and_then(|x| x.as_int()),
            Some(7)
        );
        assert_eq!(
            v.get_path("package.name").and_then(|x| x.as_str()),
            Some("scuba_tailer")
        );
        assert_eq!(v.get_path("package.missing"), None);
        assert_eq!(v.get_path("missing.deep"), None);
    }

    #[test]
    fn insert_path_replaces_scalar_intermediates() {
        let mut v = ConfigValue::empty_map();
        v.insert("a", ConfigValue::Int(1));
        v.insert_path("a.b", ConfigValue::Int(2));
        assert_eq!(v.get_path("a.b").and_then(|x| x.as_int()), Some(2));
    }

    #[test]
    fn insert_promotes_null_to_map() {
        let mut v = ConfigValue::Null;
        v.insert("k", ConfigValue::Bool(true));
        assert_eq!(v.get("k").and_then(|x| x.as_bool()), Some(true));
    }

    #[test]
    fn len_counts_entries() {
        let mut v = ConfigValue::empty_map();
        assert!(v.is_empty());
        v.insert("a", 1i64.into());
        v.insert("b", 2i64.into());
        assert_eq!(v.len(), 2);
        assert_eq!(ConfigValue::Array(vec![ConfigValue::Null]).len(), 1);
        assert_eq!(ConfigValue::Int(5).len(), 0);
    }
}
