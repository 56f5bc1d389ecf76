//! Shared scenario assembly and the one driver of the figure-reproduction
//! and sweep binaries (`src/bin/`), plus the Table I Criterion benches
//! (`benches/`).
//!
//! Each `fig*` and `ablation_*` binary regenerates one table or figure of
//! the paper's evaluation (§IV–§V); each sweep measures what this
//! reproduction adds (chaos, poison, trading, spot market,
//! survivability, engine scale). See `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for paper-vs-measured numbers.
//!
//! Every one of these binaries builds one [`Figure`] and hands it to
//! [`run_figure`], which owns both modes:
//!
//! - **default**: write the figure's CSV tables under `results/`, print
//!   its `claim` and `check` lines, exit 1 if a check failed;
//! - **`--smoke`**: build the figure twice, require the two smoke texts
//!   byte-equal, then byte-compare them with the golden under
//!   `results/` (`--smoke --bless` rewrites it); print the check lines
//!   and exit 1 if any failed.
//!
//! A figure's smoke text is its report, gated against
//! `results/<bin>.golden`. A sweep sets its own with [`Figure::golden`]:
//! `chaos_smoke`, `poison_smoke`, `bundle_market_smoke`, `market_smoke`,
//! `scale_smoke`, `surv_smoke` and `surv_failover_smoke` (`--failover`),
//! each `.golden`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;

use std::fmt::Display;
use std::io::Write;
use std::path::Path;

/// Declarative command-line spec for a sweep/figure binary: what it is,
/// which bare flags it takes and which `--key=value` options. The
/// built-in flags `--smoke` (the golden gate of [`run_figure`]),
/// `--bless` (rewrite the golden) and `--help` are accepted by every
/// binary and need not be listed.
pub struct CliSpec {
    /// Binary name, as shown in the usage line.
    pub bin: &'static str,
    /// One-line description of what the binary produces.
    pub about: &'static str,
    /// Extra bare flags beyond the built-ins, as `(name, help)`.
    pub flags: &'static [(&'static str, &'static str)],
    /// `--name=value` options, as `(name, help)`.
    pub options: &'static [(&'static str, &'static str)],
}

/// Flags every bench binary accepts without declaring them.
const BUILTIN_FLAGS: [(&str, &str); 3] = [
    (
        "smoke",
        "render the deterministic report twice and diff the golden",
    ),
    ("bless", "rewrite the golden instead of diffing against it"),
    ("help", "print this usage text and exit"),
];

impl CliSpec {
    /// The spec of a figure binary: no flags or options beyond the
    /// built-ins; `about` doubles as the figure's title.
    pub const fn figure(bin: &'static str, about: &'static str) -> CliSpec {
        CliSpec {
            bin,
            about,
            flags: &[],
            options: &[],
        }
    }

    /// Renders the usage text shown by `--help` and on a bad flag.
    pub fn usage(&self) -> String {
        let mut out = format!(
            "{} — {}\n\nUSAGE:\n    {} [FLAGS]\n",
            self.bin, self.about, self.bin
        );
        out.push_str("\nFLAGS:\n");
        for (name, help) in BUILTIN_FLAGS.iter().chain(self.flags) {
            out.push_str(&format!("    --{name:<18} {help}\n"));
        }
        if !self.options.is_empty() {
            out.push_str("\nOPTIONS:\n");
            for (name, help) in self.options {
                let key = format!("{name}=<value>");
                out.push_str(&format!("    --{key:<18} {help}\n"));
            }
        }
        out
    }

    fn knows_flag(&self, name: &str) -> bool {
        BUILTIN_FLAGS
            .iter()
            .chain(self.flags)
            .any(|(n, _)| *n == name)
    }

    fn knows_option(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| *n == name)
    }
}

/// Parsed command-line arguments of a sweep/figure binary, validated
/// against its [`CliSpec`]: unknown flags are an error with usage text
/// rather than a silent no-op.
#[derive(Debug)]
pub struct BenchArgs {
    args: Vec<String>,
}

impl BenchArgs {
    /// Captures and validates the process arguments. Prints usage and
    /// exits 0 on `--help`; prints the error plus usage to stderr and
    /// exits 2 on an unknown or malformed argument.
    pub fn parse_with(spec: &CliSpec) -> Self {
        match BenchArgs::from_vec(spec, std::env::args().skip(1).collect()) {
            Ok(args) => {
                if args.flag("help") {
                    print!("{}", spec.usage());
                    std::process::exit(0);
                }
                args
            }
            Err(msg) => {
                eprint!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The testable parse core: validates `args` against `spec` without
    /// touching the process environment. `Err` carries the full message
    /// (offending argument plus usage text).
    pub fn from_vec(spec: &CliSpec, args: Vec<String>) -> Result<Self, String> {
        for arg in &args {
            let Some(body) = arg.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument {arg:?}\n\n{}",
                    spec.usage()
                ));
            };
            match body.split_once('=') {
                Some((name, _)) if spec.knows_option(name) => {}
                Some((name, _)) => {
                    return Err(format!("unknown option --{name}\n\n{}", spec.usage()));
                }
                None if spec.knows_flag(body) => {}
                None if spec.knows_option(body) => {
                    return Err(format!(
                        "option --{body} needs a value: --{body}=<value>\n\n{}",
                        spec.usage()
                    ));
                }
                None => {
                    return Err(format!("unknown flag --{body}\n\n{}", spec.usage()));
                }
            }
        }
        Ok(BenchArgs { args })
    }

    /// True when `--smoke` was passed: build the deterministic smoke text
    /// and byte-compare it against the checked-in golden.
    pub fn smoke(&self) -> bool {
        self.flag("smoke")
    }

    /// True when `--bless` was passed: rewrite the golden instead of
    /// diffing against it.
    pub fn bless(&self) -> bool {
        self.flag("bless")
    }

    /// True when `--<name>` was passed as a bare flag.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value of a `--<name>=<value>` option, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let prefix = format!("--{name}=");
        self.args
            .iter()
            .find_map(|a| a.strip_prefix(prefix.as_str()))
    }

    /// Parses `--<name>=<value>` into `T`, falling back to `default`
    /// when the option is absent.
    ///
    /// # Panics
    ///
    /// Panics with a readable message when the value does not parse —
    /// these are CLI tools, and a bad flag should fail loudly.
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value_of(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("--{name} could not parse {v:?}")),
            None => default,
        }
    }
}

/// Writes `rows` as CSV into `dir/<name>` (creating the directory),
/// with a header line. Errors are reported but non-fatal, so a binary
/// still prints its report.
fn write_csv_in(dir: &Path, name: &str, header: &str, rows: &[String]) {
    let path = dir.join(name);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{header}")?;
        for row in rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    };
    match write() {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
    }
}

/// The `--smoke` gate: two renders of a binary's deterministic text must
/// be byte-equal, and then equal to the golden `dir/<file>`, which
/// `bless` rewrites instead. `Ok` and `Err` carry the check's detail; a
/// failure shows both texts.
fn smoke_gate_in(
    dir: &Path,
    file: &str,
    first: &str,
    second: &str,
    bless: bool,
) -> Result<String, String> {
    if first != second {
        return Err(format!(
            "two renders differ\n--- first\n{first}--- second\n{second}"
        ));
    }
    let path = dir.join(file);
    let shown = path.display();
    if bless {
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, first))
            .map_err(|e| format!("could not write {shown}: {e}"))?;
        return Ok(format!("blessed {shown}"));
    }
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == first => Ok(format!("{shown} matches byte for byte")),
        Ok(golden) => Err(format!(
            "{shown} differs\n--- golden\n{golden}--- got\n{first}"
        )),
        Err(e) => Err(format!(
            "cannot read {shown} ({e}); `--smoke --bless` writes it"
        )),
    }
}

/// What one bench binary measured: its CSV tables (rows of cells
/// formatted once), its `claim <key> <value>` cells, its named checks
/// and, for a sweep's `--smoke` run, the text its golden holds. The
/// binary builds it; [`run_figure`] writes, prints and gates it.
#[derive(Default)]
pub struct Figure {
    tables: Vec<(&'static str, &'static str, Vec<String>)>,
    claims: Vec<String>,
    checks: Vec<String>,
    failed: usize,
    golden: Option<(&'static str, String)>,
}

impl Figure {
    /// Adds the CSV table `results/<file>` with its header line.
    pub fn table(&mut self, file: &'static str, header: &'static str, rows: Vec<String>) {
        self.tables.push((file, header, rows));
    }

    /// Adds the claim line `claim <key> <value>`.
    pub fn claim(&mut self, key: impl Display, value: impl Display) {
        self.claims.push(format!("claim {key} {value}"));
    }

    /// Adds the check line `check <name> ok|FAILED <detail>`; a failed
    /// check makes the binary exit 1.
    pub fn check(&mut self, name: impl Display, ok: bool, detail: impl Display) {
        let verdict = if ok { "ok" } else { "FAILED" };
        self.checks.push(format!("check {name} {verdict} {detail}"));
        self.failed += usize::from(!ok);
    }

    /// Adds the check `name` that holds when no case in `broken` breaks
    /// `rule`; its detail is the rule, then every broken case.
    pub fn check_none(&mut self, name: impl Display, rule: impl Display, broken: &[String]) {
        if broken.is_empty() {
            self.check(name, true, rule);
        } else {
            self.check(
                name,
                false,
                format!("{rule}; broken: {}", broken.join("; ")),
            );
        }
    }

    /// Sets the text `--smoke` byte-compares with `results/<file>`. A
    /// figure that sets none is gated on its report, against
    /// `results/<bin>.golden`.
    pub fn golden(&mut self, file: &'static str, text: String) {
        self.golden = Some((file, text));
    }

    /// The figure's stdout: the title, then every claim line, then every
    /// check line, each in the order added.
    pub fn report(&self, title: &str) -> String {
        let mut out = format!("# {title}\n");
        for line in self.claims.iter().chain(&self.checks) {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// True when every check holds.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    /// The golden's file name and the text `--smoke` compares with it.
    fn smoke_text(&self, spec: &CliSpec) -> (String, String) {
        match &self.golden {
            Some((file, text)) => (file.to_string(), text.clone()),
            None => (format!("{}.golden", spec.bin), self.report(spec.about)),
        }
    }
}

/// The `--smoke` figure of a sweep whose text must not depend on its obs
/// planes: `render(false)` is the text gated against `results/<file>`.
/// The first call (`*observed` still false) also renders with obs on and
/// checks that both texts are byte-equal, so over the driver's two
/// renders obs is off twice and on once.
pub fn obs_smoke(
    file: &'static str,
    observed: &mut bool,
    render: impl Fn(bool) -> String,
) -> Figure {
    let text = render(false);
    let mut fig = Figure::default();
    if !std::mem::replace(observed, true) {
        let same = render(true) == text;
        fig.check(
            "obs_steers_nothing",
            same,
            "an obs-on render equals the obs-off one",
        );
    }
    fig.golden(file, text);
    fig
}

/// The one driver of every `fig*`, `ablation_*` and sweep binary. Parses
/// the arguments through `spec` and builds the figure. By default it
/// writes the figure's tables under `results/` and prints
/// [`Figure::report`] under `spec.about`. With `--smoke` it builds the
/// figure twice and gates its smoke text through the golden (`--bless`
/// rewrites the golden), printing only check lines. Either way it exits
/// 1 after all output if a check failed.
pub fn run_figure(spec: &CliSpec, mut build: impl FnMut(&BenchArgs) -> Figure) {
    let args = BenchArgs::parse_with(spec);
    let mut figure = build(&args);
    if args.smoke() {
        let (file, first) = figure.smoke_text(spec);
        let (_, second) = build(&args).smoke_text(spec);
        let gate = smoke_gate_in(Path::new("results"), &file, &first, &second, args.bless());
        let ok = gate.is_ok();
        let (Ok(detail) | Err(detail)) = gate;
        figure.check("smoke", ok, detail);
        for line in &figure.checks {
            println!("{line}");
        }
    } else {
        for (file, header, rows) in &figure.tables {
            write_csv_in(Path::new("results"), file, header, rows);
        }
        print!("{}", figure.report(spec.about));
    }
    if !figure.passed() {
        std::process::exit(1);
    }
}

/// Renders pre-rendered JSON objects as a list, one per line, for a
/// [`write_bench_json`] field.
pub fn json_rows(rows: &[String]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    ");
        out.push_str(row);
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]");
    out
}

/// Writes `BENCH_<file>.json` at the repository root: `{"bench": <bench>,
/// <fields>}`, one field per line, each value already rendered as JSON
/// (lists through [`json_rows`]). Errors are reported but non-fatal, like
/// a table's CSV.
pub fn write_bench_json(file: &str, bench: &str, fields: &[(&str, String)]) {
    let mut json = format!("{{\n  \"bench\": \"{bench}\"");
    for (key, value) in fields {
        json.push_str(&format!(",\n  \"{key}\": {value}"));
    }
    json.push_str("\n}\n");
    let path = format!("BENCH_{file}.json");
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("[wrote {path}]"),
        Err(e) => eprintln!("[could not write {path}: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rows_one_object_per_line() {
        let rows = ["{\"a\": 1}".to_string(), "{\"a\": 2}".to_string()];
        assert_eq!(json_rows(&rows), "[\n    {\"a\": 1},\n    {\"a\": 2}\n  ]");
        assert_eq!(json_rows(&[]), "[\n  ]");
    }

    const SPEC: CliSpec = CliSpec {
        bin: "demo_sweep",
        about: "exercise the parser",
        flags: &[("full", "also run the slow points")],
        options: &[("fault-rate", "fraction of faulty sends")],
    };

    fn args(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::from_vec(&SPEC, list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn accepts_builtin_declared_and_empty() {
        assert!(args(&[]).is_ok());
        let a = args(&["--smoke", "--bless", "--full"]).unwrap();
        assert!(a.smoke() && a.bless() && a.flag("full"));
        assert!(!a.flag("help"));
    }

    #[test]
    fn parses_option_values() {
        let a = args(&["--fault-rate=0.25"]).unwrap();
        assert_eq!(a.value_of("fault-rate"), Some("0.25"));
        assert_eq!(a.value_or("fault-rate", 0.0), 0.25);
        assert_eq!(a.value_or("missing", 7u32), 7);
    }

    #[test]
    fn rejects_unknown_flag_with_usage() {
        let err = args(&["--smok"]).unwrap_err();
        assert!(err.starts_with("unknown flag --smok"), "{err}");
        assert!(err.contains("USAGE:"), "{err}");
        assert!(err.contains("--fault-rate=<value>"), "{err}");
    }

    #[test]
    fn rejects_unknown_option_and_positional() {
        let err = args(&["--faultrate=0.5"]).unwrap_err();
        assert!(err.starts_with("unknown option --faultrate"), "{err}");
        let err = args(&["smoke"]).unwrap_err();
        assert!(err.starts_with("unexpected positional"), "{err}");
    }

    #[test]
    fn option_used_as_bare_flag_asks_for_a_value() {
        let err = args(&["--fault-rate"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn usage_lists_builtins_and_declared() {
        let usage = SPEC.usage();
        for needle in ["--smoke", "--bless", "--help", "--full", "demo_sweep"] {
            assert!(usage.contains(needle), "{usage}");
        }
    }

    fn demo_figure(second_holds: bool) -> Figure {
        let mut fig = Figure::default();
        fig.table("demo.csv", "a,b", vec!["1,2.50".into(), "3,4.00".into()]);
        fig.claim("alpha", 1);
        fig.check("first", true, "1 < 2");
        fig.claim("beta", format!("{:.2}", 0.5));
        fig.check("second", second_holds, "2 < 3");
        fig
    }

    #[test]
    fn report_is_title_claims_then_checks_in_order_every_time() {
        let fig = demo_figure(true);
        let report = fig.report("Demo");
        assert_eq!(
            report,
            "# Demo\nclaim alpha 1\nclaim beta 0.50\ncheck first ok 1 < 2\ncheck second ok 2 < 3\n"
        );
        assert_eq!(report, fig.report("Demo"));
        assert_eq!(report, demo_figure(true).report("Demo"));
        assert!(fig.passed());
    }

    #[test]
    fn failed_check_fails_the_figure_and_names_itself() {
        let fig = demo_figure(false);
        assert!(!fig.passed());
        let report = fig.report("Demo");
        assert!(report.contains("\ncheck first ok 1 < 2\n"), "{report}");
        assert!(
            report.ends_with("\ncheck second FAILED 2 < 3\n"),
            "{report}"
        );
    }

    #[test]
    fn table_is_written_by_the_csv_writer_as_header_then_rows() {
        let dir = std::env::temp_dir().join(format!("vbundle-bench-csv-{}", std::process::id()));
        let fig = demo_figure(true);
        for (file, header, rows) in &fig.tables {
            write_csv_in(&dir, file, header, rows);
        }
        let text = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text, "a,b\n1,2.50\n3,4.00\n");
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("vbundle-bench-{tag}-{}", std::process::id()))
    }

    /// Runs the smoke gate over `dir`, which holds `golden` as
    /// `demo.golden` when given, and removes `dir` afterwards.
    fn gate(tag: &str, golden: Option<&str>, first: &str, second: &str) -> Result<String, String> {
        let dir = scratch_dir(tag);
        if let Some(text) = golden {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("demo.golden"), text).unwrap();
        }
        let result = smoke_gate_in(&dir, "demo.golden", first, second, false);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    #[test]
    fn smoke_gate_passes_equal_text() {
        let ok = gate(
            "smoke-equal",
            Some("claim x 1\n"),
            "claim x 1\n",
            "claim x 1\n",
        )
        .unwrap();
        assert!(ok.ends_with("demo.golden matches byte for byte"), "{ok}");
    }

    #[test]
    fn smoke_gate_fails_one_byte_off_naming_the_golden_and_both_texts() {
        let err = gate(
            "smoke-byte",
            Some("claim x 1\n"),
            "claim x 2\n",
            "claim x 2\n",
        )
        .unwrap_err();
        assert!(err.contains("demo.golden differs"), "{err}");
        assert!(
            err.ends_with("\n--- golden\nclaim x 1\n--- got\nclaim x 2\n"),
            "{err}"
        );
        let err = gate("smoke-none", None, "claim x 1\n", "claim x 1\n").unwrap_err();
        assert!(
            err.contains("demo.golden") && err.contains("--bless"),
            "{err}"
        );
    }

    #[test]
    fn smoke_gate_bless_writes_the_golden() {
        let dir = scratch_dir("smoke-bless");
        let ok = smoke_gate_in(&dir, "demo.golden", "claim x 3\n", "claim x 3\n", true).unwrap();
        let written = std::fs::read_to_string(dir.join("demo.golden")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(ok.starts_with("blessed "), "{ok}");
        assert_eq!(written, "claim x 3\n");
    }

    #[test]
    fn smoke_gate_fails_on_differing_renders_before_any_golden_is_read() {
        // The golden would match the first render, and bless would write
        // it: two renders that differ fail before either happens.
        let err = gate("smoke-renders", Some("x\n"), "x\n", "y\n").unwrap_err();
        assert_eq!(err, "two renders differ\n--- first\nx\n--- second\ny\n");
        let dir = scratch_dir("smoke-renders-bless");
        assert!(smoke_gate_in(&dir, "demo.golden", "x\n", "y\n", true).is_err());
        assert!(!dir.exists());
    }

    #[test]
    fn smoke_text_is_the_report_unless_a_golden_is_set() {
        let mut fig = demo_figure(true);
        let (file, text) = fig.smoke_text(&SPEC);
        assert_eq!(file, "demo_sweep.golden");
        assert_eq!(text, fig.report(SPEC.about));
        fig.golden("demo_smoke.golden", "hot 1\n".into());
        assert_eq!(
            fig.smoke_text(&SPEC),
            ("demo_smoke.golden".to_string(), "hot 1\n".to_string())
        );
    }

    #[test]
    fn obs_smoke_renders_obs_on_once_and_checks_it() {
        let renders = std::cell::RefCell::new(Vec::new());
        let render = |obs: bool| {
            renders.borrow_mut().push(obs);
            "text\n".to_string()
        };
        let mut observed = false;
        let first = obs_smoke("demo.golden", &mut observed, render);
        let second = obs_smoke("demo.golden", &mut observed, render);
        assert_eq!(*renders.borrow(), [false, true, false]);
        assert!(first.passed() && second.passed());
        assert_eq!(first.checks.len(), 1);
        assert!(second.checks.is_empty());
        let mut observed = false;
        let steered = obs_smoke("demo.golden", &mut observed, |obs| format!("{obs}\n"));
        assert!(!steered.passed());
    }

    #[test]
    fn check_none_lists_the_broken_cases() {
        let mut fig = Figure::default();
        fig.check_none("floor", "every cell >= 45%", &[]);
        fig.check_none(
            "ceiling",
            "steps <= 3",
            &["hot 200: 4.1".into(), "hot 320: 3.5".into()],
        );
        assert!(!fig.passed());
        assert_eq!(
            fig.report("T"),
            "# T\ncheck floor ok every cell >= 45%\n\
             check ceiling FAILED steps <= 3; broken: hot 200: 4.1; hot 320: 3.5\n"
        );
    }

    #[test]
    #[should_panic(expected = "could not parse")]
    fn bad_option_value_panics_readably() {
        let a = args(&["--fault-rate=banana"]).unwrap();
        let _: f64 = a.value_or("fault-rate", 0.0);
    }
}
