//! The one bench rig: every `rds-bench` binary parses its flags, times
//! its arms and writes its record here, and nowhere else.
//!
//! * [`parse`] — `--name value` and boolean flags; anything else prints
//!   one usage line built from the declared flags and exits non-zero.
//! * [`alternate`] — `k` arms per round, round `r` starting at arm
//!   `r mod k` (ABBA for two arms), every sample kept; [`Stat`] reduces
//!   samples to median and quartiles by nearest rank, and
//!   [`Rounds::ratio`] pairs two arms round by round.
//! * [`Record`] — one ordered record rendered both to
//!   `BENCH_<bench>.json` and to `results/<bench>.txt`, so the two carry
//!   the same numbers. JSON is hand-written: the workspace builds offline.

use crate::report::Table;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// A flag's destination: parses its value (or, for a boolean, is set by
/// its presence alone).
pub trait FlagValue {
    /// The usage placeholder of the value; empty for a boolean flag.
    fn placeholder(&self) -> &'static str;
    /// Stores `text`; `false` if it does not parse.
    fn set(&mut self, text: &str) -> bool;
}

impl FlagValue for usize {
    fn placeholder(&self) -> &'static str {
        "N"
    }
    fn set(&mut self, text: &str) -> bool {
        text.parse().map(|v| *self = v).is_ok()
    }
}

impl FlagValue for bool {
    fn placeholder(&self) -> &'static str {
        ""
    }
    fn set(&mut self, _: &str) -> bool {
        *self = true;
        true
    }
}

impl FlagValue for String {
    fn placeholder(&self) -> &'static str {
        "NAME"
    }
    fn set(&mut self, text: &str) -> bool {
        *self = text.to_string();
        true
    }
}

/// A comma-separated, non-empty list of counts (`--ns 10,20,30`).
impl FlagValue for Vec<usize> {
    fn placeholder(&self) -> &'static str {
        "N,N,.."
    }
    fn set(&mut self, text: &str) -> bool {
        match text.split(',').map(|s| s.trim().parse()).collect() {
            Ok(list) => {
                *self = list;
                !self.is_empty()
            }
            Err(_) => false,
        }
    }
}

/// The binary's declared flags: name and destination.
pub type Flags<'a> = [(&'static str, &'a mut dyn FlagValue)];

/// Parses the process arguments into `flags`. An unknown flag, or a
/// missing or unparsable value, prints the usage line and exits with
/// status 1.
pub fn parse(bin: &str, flags: &mut Flags) {
    if let Err(usage) = parse_from(bin, std::env::args().skip(1), flags) {
        eprintln!("{usage}");
        std::process::exit(1);
    }
}

/// [`parse`] over explicit arguments; `Err` carries the usage line.
fn parse_from(
    bin: &str,
    args: impl IntoIterator<Item = String>,
    flags: &mut Flags,
) -> Result<(), String> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let Some((_, value)) = flags.iter_mut().find(|(name, _)| *name == arg) else {
            return Err(usage(bin, flags));
        };
        let ok = if value.placeholder().is_empty() {
            value.set("")
        } else {
            args.next().is_some_and(|text| value.set(&text))
        };
        if !ok {
            return Err(usage(bin, flags));
        }
    }
    Ok(())
}

fn usage(bin: &str, flags: &Flags) -> String {
    let mut line = format!("usage: {bin}");
    for (name, value) in flags {
        match value.placeholder() {
            "" => line.push_str(&format!(" [{name}]")),
            p => line.push_str(&format!(" [{name} {p}]")),
        }
    }
    line
}

/// Every sample of an [`alternate`] run: `seconds[arm][round]`.
#[derive(Debug)]
pub struct Rounds {
    seconds: Vec<Vec<f64>>,
}

impl Rounds {
    /// Arm `arm`'s samples in milliseconds.
    pub fn ms(&self, arm: usize) -> Stat {
        Stat::of(self.seconds[arm].iter().map(|s| s * 1e3))
    }

    /// Arm `arm`'s rate: `work` units per second of each sample.
    pub fn per_sec(&self, arm: usize, work: usize) -> Stat {
        Stat::of(self.seconds[arm].iter().map(|s| work as f64 / s))
    }

    /// The paired per-round ratio `num / den` (a baseline over a
    /// candidate is the candidate's speed-up).
    pub fn ratio(&self, num: usize, den: usize) -> Stat {
        self.paired(num, den, 0.0)
    }

    /// The paired per-round cost of `arm` over `base`: `arm / base - 1`.
    pub fn overhead(&self, arm: usize, base: usize) -> Stat {
        self.paired(arm, base, 1.0)
    }

    fn paired(&self, num: usize, den: usize, minus: f64) -> Stat {
        let pairs = self.seconds[num].iter().zip(&self.seconds[den]);
        Stat::of(pairs.map(|(n, d)| n / d - minus))
    }
}

/// Runs `rounds` rounds (at least one) of `arms` arms. Round `r` runs
/// every arm once, starting at arm `r mod arms`, so drift in machine load
/// and warm-cache order hit every arm alike. `run(i)` runs arm `i` once
/// and returns its sample, which the arm may time itself (to leave out
/// set-up) or take from [`timed`].
pub fn alternate(rounds: usize, arms: usize, mut run: impl FnMut(usize) -> Duration) -> Rounds {
    let mut seconds = vec![Vec::new(); arms];
    for r in 0..rounds.max(1) {
        for k in 0..arms {
            let arm = (r + k) % arms;
            seconds[arm].push(run(arm).as_secs_f64());
        }
    }
    Rounds { seconds }
}

/// Wall time of one call of `f`.
pub fn timed(f: impl FnOnce()) -> Duration {
    let started = Instant::now();
    f();
    started.elapsed()
}

/// Median and quartiles of a sample, each by nearest rank (the smallest
/// sample with at least `q · n` samples at or below it).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Stat {
    /// The statistic of `values`; all zero for an empty sample.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Stat {
        let mut v: Vec<f64> = values.into_iter().collect();
        v.sort_by(f64::total_cmp);
        let rank = |q: f64| {
            let r = (q * v.len() as f64).ceil() as usize;
            v.get(r.clamp(1, v.len().max(1)) - 1)
                .copied()
                .unwrap_or(0.0)
        };
        Stat {
            q1: rank(0.25),
            median: rank(0.5),
            q3: rank(0.75),
        }
    }
}

#[derive(Clone, Debug)]
enum Value {
    /// A JSON literal (number, `true`/`false`, `null`), printed as is.
    Literal(String),
    Text(String),
    /// Median, q1, q3, already formatted.
    Stat([String; 3]),
    Object(Record),
    Rows(Vec<Record>),
}

/// An ordered bench record: built key by key, rendered to JSON and to
/// text from the same formatted values.
#[derive(Clone, Debug, Default)]
pub struct Record {
    name: String,
    note: String,
    fields: Vec<(String, Value)>,
}

fn fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

impl Record {
    /// A top-level record: the header keys `bench`, `host_cores`,
    /// `git_rev` and `repeat` (the rounds run: [`alternate`] runs at
    /// least one) first, then whatever the bench adds.
    pub fn new(bench: &str, repeat: usize) -> Record {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Record {
            name: bench.to_string(),
            ..Record::default()
        }
        .text("bench", bench)
        .int("host_cores", cores as u64)
        .text("git_rev", &git_rev())
        .int("repeat", repeat.max(1) as u64)
    }

    /// Free text printed as `#` lines above the text rendering only: what
    /// the arms are and how they are compared.
    pub fn note(mut self, note: &str) -> Record {
        self.note = note.to_string();
        self
    }

    fn push(mut self, key: &str, value: Value) -> Record {
        self.fields.push((key.to_string(), value));
        self
    }

    /// A number with `decimals` places (`null` if not finite).
    pub fn num(self, key: &str, v: f64, decimals: usize) -> Record {
        self.push(key, Value::Literal(fixed(v, decimals)))
    }

    /// A count.
    pub fn int(self, key: &str, v: u64) -> Record {
        self.push(key, Value::Literal(v.to_string()))
    }

    /// A boolean.
    pub fn flag(self, key: &str, v: bool) -> Record {
        self.push(key, Value::Literal(v.to_string()))
    }

    /// A string.
    pub fn text(self, key: &str, v: &str) -> Record {
        self.push(key, Value::Text(v.to_string()))
    }

    /// A timed statistic: `key` holds the median, `key_q1`/`key_q3` the
    /// quartiles in JSON; the text reads `median [q1, q3]`.
    pub fn stat(self, key: &str, s: Stat, decimals: usize) -> Record {
        let f = |v| fixed(v, decimals);
        self.push(key, Value::Stat([f(s.median), f(s.q1), f(s.q3)]))
    }

    /// A nested object (build it from `Record::default()`).
    pub fn object(self, key: &str, v: Record) -> Record {
        self.push(key, Value::Object(v))
    }

    /// An array of row objects, one line each in JSON, a table in text.
    pub fn rows(self, key: &str, rows: Vec<Record>) -> Record {
        self.push(key, Value::Rows(rows))
    }

    /// Appends the fields of `from` named in `keys`, in `from`'s order.
    pub fn copy(mut self, from: &Record, keys: &[&str]) -> Record {
        let picked = from
            .fields
            .iter()
            .filter(|(k, _)| keys.contains(&k.as_str()));
        self.fields.extend(picked.cloned());
        self
    }

    /// The record as a JSON object: one key a line, indented past `pad`,
    /// or all on one line (a row) when `pad` is `None`. Stats expand into
    /// their three keys.
    fn json(&self, pad: Option<&str>) -> String {
        let inner = format!("{}  ", pad.unwrap_or(""));
        let mut items = Vec::new();
        for (key, value) in &self.fields {
            let mut item = |k: &str, v: String| items.push(format!("\"{k}\": {v}"));
            match value {
                Value::Literal(v) => item(key, v.clone()),
                Value::Text(v) => item(key, format!("\"{}\"", escape(v))),
                Value::Stat([m, q1, q3]) => {
                    item(key, m.clone());
                    item(&format!("{key}_q1"), q1.clone());
                    item(&format!("{key}_q3"), q3.clone());
                }
                Value::Object(r) => item(key, r.json(Some(&inner))),
                Value::Rows(rows) => {
                    let lines: Vec<String> = rows.iter().map(|r| r.json(None)).collect();
                    item(
                        key,
                        format!(
                            "[\n{inner}  {}\n{inner}]",
                            lines.join(&format!(",\n{inner}  "))
                        ),
                    );
                }
            }
        }
        match pad {
            Some(pad) => format!("{{\n{inner}{}\n{pad}}}", items.join(&format!(",\n{inner}"))),
            None => format!("{{{}}}", items.join(", ")),
        }
    }

    /// The JSON document.
    pub fn to_json(&self) -> String {
        format!("{}\n", self.json(Some("")))
    }

    /// `(path, text)` for every scalar, nested keys dotted; rows become a
    /// rendered table in place.
    fn text_entries(&self, prefix: &str, out: &mut Vec<(String, String)>) {
        for (key, value) in &self.fields {
            let path = format!("{prefix}{key}");
            match value {
                Value::Object(r) => r.text_entries(&format!("{path}."), out),
                Value::Rows(rows) => {
                    let columns: Vec<&str> = rows
                        .first()
                        .map(|r| r.fields.iter().map(|(k, _)| k.as_str()).collect())
                        .unwrap_or_default();
                    let mut table = Table::new(format!("{path}:"), &columns);
                    for r in rows {
                        table.push_row(r.fields.iter().map(|(_, v)| cell(v)).collect());
                    }
                    out.push((String::new(), table.render()));
                }
                _ => out.push((path, cell(value))),
            }
        }
    }

    fn has_stat(&self) -> bool {
        self.fields.iter().any(|(_, v)| match v {
            Value::Stat(_) => true,
            Value::Object(r) => r.has_stat(),
            Value::Rows(rows) => rows.iter().any(Record::has_stat),
            _ => false,
        })
    }

    /// The text rendering: the note and a legend as `#` lines, then one
    /// aligned `key value` line per scalar and a table per row array.
    pub fn to_text(&self) -> String {
        let mut entries = Vec::new();
        self.text_entries("", &mut entries);
        let width = entries.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        let mut out: String = self.note.lines().map(|l| format!("# {l}\n")).collect();
        if self.has_stat() {
            out.push_str("# x [q1, q3]: median and quartiles over the alternated rounds;\n");
            out.push_str("# ratios and overheads pair the arms round by round\n");
        }
        for (key, text) in entries {
            if key.is_empty() {
                out.push_str(&text);
            } else {
                out.push_str(&format!("{key:<width$}  {text}\n"));
            }
        }
        out
    }

    /// Prints the text rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_text());
    }

    /// Prints the text rendering and writes it to `results/<bench>.txt`,
    /// and the JSON to `BENCH_<bench>.json`, in the working directory.
    pub fn write(&self) -> ExitCode {
        self.print();
        let (txt, json) = (
            format!("results/{}.txt", self.name),
            format!("BENCH_{}.json", self.name),
        );
        let written = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&txt, self.to_text()))
            .and_then(|()| std::fs::write(&json, self.to_json()));
        match written {
            Ok(()) => {
                eprintln!("wrote {txt} and {json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("could not write {txt} and {json}: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// A value as one text cell: stats read `median [q1, q3]`.
fn cell(value: &Value) -> String {
    match value {
        Value::Literal(v) | Value::Text(v) => v.clone(),
        Value::Stat([m, q1, q3]) => format!("{m} [{q1}, {q3}]"),
        Value::Object(_) | Value::Rows(_) => "..".to_string(),
    }
}

/// Escapes a string for a JSON document.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `git rev-parse --short HEAD` of the working directory, with `-dirty`
/// when a tracked file other than the bench records themselves
/// (`BENCH_*.json`, `results/`) differs from it; `"unknown"` without git.
fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| {
        s.lines()
            .filter_map(|l| l.get(3..))
            .any(|path| !path.starts_with("BENCH_") && !path.starts_with("results/"))
    });
    format!("{}{}", rev.trim(), if dirty { "-dirty" } else { "" })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_booleans_and_keep_defaults() {
        let (mut queries, mut repeat, mut full, mut fig, mut ns) =
            (1000usize, 10usize, false, "all".to_string(), vec![10usize]);
        let parsed = parse_from(
            "demo",
            args(&["--repeat", "3", "--full", "--fig", "summary", "--ns", "5,6"]),
            &mut [
                ("--queries", &mut queries),
                ("--repeat", &mut repeat),
                ("--full", &mut full),
                ("--fig", &mut fig),
                ("--ns", &mut ns),
            ],
        );
        assert_eq!(parsed, Ok(()));
        assert_eq!((queries, repeat, full), (1000, 3, true));
        assert_eq!((fig.as_str(), ns), ("summary", vec![5, 6]));
    }

    #[test]
    fn bad_flags_give_the_usage_line() {
        let want = "usage: demo [--queries N] [--full]";
        for bad in [
            &["--bogus"][..],
            &["--queries"],
            &["--queries", "ten"],
            &["--queries", "-1"],
            &["--full", "--queries", "1.5"],
        ] {
            let (mut queries, mut full) = (1usize, false);
            let parsed = parse_from(
                "demo",
                args(bad),
                &mut [("--queries", &mut queries), ("--full", &mut full)],
            );
            assert_eq!(parsed, Err(want.to_string()), "{bad:?}");
        }
        let mut ns: Vec<usize> = Vec::new();
        let err = parse_from("demo", args(&["--ns", ""]), &mut [("--ns", &mut ns)]);
        assert_eq!(err, Err("usage: demo [--ns N,N,..]".to_string()));
    }

    #[test]
    fn arm_order_rotates_per_round() {
        for (arms, want) in [
            (2, vec![0, 1, 1, 0, 0, 1]),
            (3, vec![0, 1, 2, 1, 2, 0, 2, 0, 1]),
        ] {
            let mut order = Vec::new();
            let rounds = alternate(3, arms, |arm| {
                order.push(arm);
                Duration::from_millis(1 + arm as u64)
            });
            assert_eq!(order, want);
            for arm in 0..arms {
                assert_eq!(rounds.seconds[arm], vec![(1 + arm) as f64 / 1e3; 3]);
            }
        }
        // Zero rounds still run one.
        assert_eq!(alternate(0, 1, |_| Duration::ZERO).seconds[0].len(), 1);
    }

    #[test]
    fn quartiles_are_nearest_rank_and_ratios_pair_rounds() {
        let s = Stat::of([7.0, 2.0, 9.0, 4.0, 1.0, 10.0, 3.0, 8.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 5.0, 8.0));
        assert_eq!(Stat::of([4.0]).median, 4.0);
        assert_eq!(Stat::of([]).median, 0.0);

        // Round by round: ratios 2, 3, 1.
        let rounds = Rounds {
            seconds: vec![vec![2.0, 6.0, 3.0], vec![1.0, 2.0, 3.0]],
        };
        let stat = |s: Stat| (s.q1, s.median, s.q3);
        assert_eq!(stat(rounds.ratio(0, 1)), (1.0, 2.0, 3.0));
        assert_eq!(stat(rounds.overhead(0, 1)), (0.0, 1.0, 2.0));
        assert_eq!(stat(rounds.ms(0)), (2000.0, 3000.0, 6000.0));
        assert_eq!(stat(rounds.per_sec(1, 6)), (2.0, 3.0, 6.0));
    }

    #[test]
    fn record_renders_the_same_numbers_to_json_and_text() {
        let stat = Stat {
            q1: 1.5,
            median: 2.25,
            q3: 3.0,
        };
        let record = Record::new("demo", 3)
            .note("two arms\nalternated")
            .num("speedup", 1.23456, 3)
            .stat("engine_ms", stat, 2)
            .text("label", "say \"hi\"\\")
            .object("low", Record::default().int("p50_us", 15).flag("ok", true))
            .rows(
                "rungs",
                vec![
                    Record::default().int("grid", 7).stat("ms", stat, 1),
                    Record::default().int("grid", 14).num("ms", f64::NAN, 1),
                ],
            );
        let json = record.to_json();
        let header: Vec<&str> = json.lines().skip(1).take(4).collect();
        assert_eq!(header[0], "  \"bench\": \"demo\",");
        assert!(header[1].starts_with("  \"host_cores\": "));
        assert!(header[2].starts_with("  \"git_rev\": \""));
        assert_eq!(header[3], "  \"repeat\": 3,");
        for want in [
            "\"speedup\": 1.235,",
            "\"engine_ms\": 2.25,\n  \"engine_ms_q1\": 1.50,\n  \"engine_ms_q3\": 3.00,",
            "\"label\": \"say \\\"hi\\\"\\\\\",",
            "\"low\": {\n    \"p50_us\": 15,\n    \"ok\": true\n  },",
            "\"rungs\": [\n    {\"grid\": 7, \"ms\": 2.2, \"ms_q1\": 1.5, \"ms_q3\": 3.0},\n    {\"grid\": 14, \"ms\": null}\n  ]\n}\n",
        ] {
            assert!(json.contains(want), "{want} missing from\n{json}");
        }

        let text = record.to_text();
        assert!(text.starts_with("# two arms\n# alternated\n# x [q1, q3]: median"));
        assert!(text.contains("\nbench "));
        // Every number of the JSON document appears in the text.
        let separators = [',', '\n', '{', '}', '[', ']'];
        let numbers: Vec<&str> = json
            .split(separators)
            .filter_map(|item| item.split_once("\": ").map(|(_, v)| v.trim()))
            .filter(|v| v.parse::<f64>().is_ok())
            .collect();
        assert_eq!(numbers.len(), 12, "{numbers:?}");
        for n in numbers {
            assert!(text.contains(n), "{n} missing from\n{text}");
        }
        let line = |key: &str| {
            let found = text
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '));
            found.map(str::trim)
        };
        assert_eq!(line("repeat"), Some("3"));
        assert_eq!(line("speedup"), Some("1.235"));
        assert_eq!(line("engine_ms"), Some("2.25 [1.50, 3.00]"));
        assert_eq!(line("label"), Some("say \"hi\"\\"));
        assert_eq!(line("low.p50_us"), Some("15"));
        assert_eq!(line("low.ok"), Some("true"));
        let table = text.split_once("rungs:\n").expect("row table").1;
        assert!(table.contains("2.2 [1.5, 3.0]") && table.contains("null"));
    }
}
