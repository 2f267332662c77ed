//! One machine-readable result per bench.
//!
//! A bench names itself, adds `sim` fields (simulated µs, device
//! requests, objects, ratios at a fixed precision: deterministic, so a
//! committed file can pin them) and `wall` fields (host-clock numbers,
//! printed and uploaded, never committed), and emits the record after
//! its tables: JSON, one field per line, each line prefixed
//! `BENCH_JSON `. `scripts/verify.sh` diffs the `sim` object against the
//! committed `BENCH_<name>.json`, so a mismatch names the field.

use s4_clock::SimDuration;

/// A value a [`Record`] field holds, rendered as JSON one way only.
pub trait Field {
    /// The value as JSON text.
    fn render(&self) -> String;
}

macro_rules! integer_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn render(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
integer_field!(u32, u64, usize);

/// A ratio or a host measurement, at three decimals; a NaN (a row the
/// bench could not attain) is `null`.
impl Field for f64 {
    fn render(&self) -> String {
        if self.is_finite() {
            format!("{self:.3}")
        } else {
            "null".into()
        }
    }
}

/// Simulated time, in whole microseconds.
impl Field for SimDuration {
    fn render(&self) -> String {
        self.as_micros().to_string()
    }
}

impl<T: Field> Field for &[T] {
    fn render(&self) -> String {
        let items: Vec<String> = self.iter().map(Field::render).collect();
        format!("[{}]", items.join(", "))
    }
}

/// One bench's result: its name, the `S4_BENCH_SCALE` it ran at, and
/// its `sim` and `wall` fields in the order they were added.
pub struct Record {
    bench: &'static str,
    scale: f64,
    sim: Vec<(String, String)>,
    wall: Vec<(String, String)>,
}

impl Record {
    /// An empty record for `bench` at the run's [`crate::scale`].
    pub fn new(bench: &'static str) -> Self {
        Record {
            bench,
            scale: crate::scale(),
            sim: Vec::new(),
            wall: Vec::new(),
        }
    }

    /// Adds a simulated field. Panics if the record already has `name`.
    pub fn sim(&mut self, name: impl Into<String>, value: impl Field) -> &mut Self {
        let field = self.field(name.into(), value);
        self.sim.push(field);
        self
    }

    /// Adds a host-clock field. Panics if the record already has `name`.
    pub fn wall(&mut self, name: impl Into<String>, value: impl Field) -> &mut Self {
        let field = self.field(name.into(), value);
        self.wall.push(field);
        self
    }

    fn field(&self, name: String, value: impl Field) -> (String, String) {
        let taken = self.sim.iter().chain(&self.wall).any(|(n, _)| *n == name);
        assert!(!taken, "{}: field {name} recorded twice", self.bench);
        (name, value.render())
    }

    /// The record as JSON, one field per line.
    fn render(&self) -> String {
        let object = |fields: &[(String, String)]| {
            let lines: Vec<String> = fields
                .iter()
                .map(|(name, value)| format!("\n    \"{name}\": {value}"))
                .collect();
            let end = if fields.is_empty() { "" } else { "\n  " };
            format!("{{{}{end}}}", lines.join(","))
        };
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"scale\": {},\n  \"sim\": {},\n  \"wall\": {}\n}}\n",
            self.bench,
            self.scale,
            object(&self.sim),
            object(&self.wall)
        )
    }

    /// Prints the record, each line prefixed `BENCH_JSON `.
    pub fn emit(&self) {
        for line in self.render().lines() {
            println!("BENCH_JSON {line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_fields_in_order_one_per_line() {
        let mut r = Record::new("demo");
        r.scale = 0.25;
        r.sim("ops", 1909u64).sim("shards", &[1usize, 2][..]);
        r.sim("elapsed_us", SimDuration::from_micros(347_012));
        r.sim("speedup", &[1.0, 1.9314][..]).wall("wall_s", 0.1234);
        let want = "{\n  \"bench\": \"demo\",\n  \"scale\": 0.25,\n  \"sim\": {\n    \
                    \"ops\": 1909,\n    \"shards\": [1, 2],\n    \"elapsed_us\": 347012,\n    \
                    \"speedup\": [1.000, 1.931]\n  },\n  \"wall\": {\n    \"wall_s\": 0.123\n  }\n}\n";
        assert_eq!(r.render(), want);
        let dup = std::panic::catch_unwind(move || r.sim("ops", 2u64).render());
        assert!(dup.is_err(), "a second field named ops was accepted");
    }
}
