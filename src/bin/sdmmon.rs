//! `sdmmon` — command-line front end to the reproduction.
//!
//! ```text
//! sdmmon asm <file.s> [-o <out.bin>] [--base <addr>]
//!     Assemble a MIPS workload to a big-endian binary image.
//!
//! sdmmon disasm <file.bin> [--base <addr>]
//!     Disassemble a binary image.
//!
//! sdmmon graph <file.s> [--param <hex>] [--compression sum|xor|sbox|sip]
//!     Extract and summarize the monitoring graph of a workload.
//!
//! sdmmon run <file.s> --packet <hex> [--param <hex>] [--trace <n>]
//!     Run one packet through a monitored core and print the outcome.
//!
//! sdmmon campaign [--seed <n>] [--budget <n>] [--routers <n>]
//!                 [--escape-trials <n>] [--out <path>]
//!                 [--events <path>] [--metrics <path>]
//!     Run the seeded fault-injection / adversarial campaign suite and
//!     write the deterministic JSON report.
//!
//! sdmmon deploy [--routers <n>] [--cores <n>] [--seed <n>]
//!               [--loss <p>] [--corrupt <p>] [--stall <p>]
//!               [--outage <from:len>] [--blackhole <router>]
//!               [--max-retries <n>] [--deploy-attempts <n>]
//!               [--events <path>] [--metrics <path>]
//!     Deploy a fleet over a deterministic faulty transport and print
//!     the per-router convergence table (installed vs quarantined).
//!
//! sdmmon deploy --relays <m> [--routers <n>] [--key-pool <n>]
//!               [--out <path>] [...same fault/seed flags...]
//!     Hierarchical fleet-scale deployment: one shared encrypted update,
//!     relays caching the ciphertext (origin egress O(relays)), per-router
//!     key wraps, wire-format v2 with per-section checksums. Writes the
//!     byte-stable sdmmon-fleet-v1 JSON report.
//!
//! sdmmon bench [--quick] [--shards <n>] [--metrics <path>]
//!     Run the three performance gates and fail naming each one missed:
//!     the bit-sliced `sip` hash at least 4x the scalar loop, the sharded
//!     batch engine at least as fast as serial reference dispatch
//!     (`--shards` caps its sweep), and sampled tracing within 5% of
//!     untraced streaming throughput. Outputs are asserted identical to
//!     their oracles on every timed run.
//!
//! sdmmon stream [--quick] [--seed <n>] [--shards <n>] [--rounds <n>]
//!               [--capacity <n>] [--out <path>] [--metrics <path>]
//!     Push open-loop heavy-tailed traffic (bounded-Pareto flows, bursts,
//!     churn, hijack salt) through the streaming ingest engine — bounded
//!     per-shard admission plus deterministic whole-queue work stealing —
//!     verify it byte-identical to the serial streaming oracle, and write
//!     the timing-free sdmmon-stream-v1 JSON report.
//!
//! sdmmon trace [--quick] [--seed <n>] [--shards <n>] [--rounds <n>]
//!              [--sample <per-mille>] [--out <path>] [--perfetto <path>]
//!              [--events <path>] [--metrics <path>]
//!     Run the streaming hijack scenario with the causal span/trace layer
//!     armed (seeded per-mille flow sampling + per-core flight recorder),
//!     assemble the span chains, and write the sdmmon-trace-v1 JSON —
//!     byte-identical per seed at any shard count. `--perfetto` exports
//!     Chrome trace-event JSON on logical clocks.
//!
//! sdmmon stats [--seed <n>] [--packets <n>] [--cores <n>] [--shards <n>]
//!              [--events <path>] [--metrics <path>]
//!     Drive seeded monitored traffic (benign + hijack bursts) through the
//!     sharded batch engine with the supervisor armed and print the NP
//!     counters, detection-latency percentiles, and the metrics-registry
//!     snapshot.
//! ```
//!
//! Every command starts from a clean metrics registry; `--metrics <path>`
//! writes the `sdmmon-metrics-v1` snapshot and `--events <path>` writes
//! the `sdmmon-events-v1` JSONL stream, both byte-identical per seed (see
//! `docs/OBSERVABILITY.md`).
//!
//! Exit codes: 0 success, 1 usage error, 2 processing error.

use sdmmon::isa::asm::Assembler;
use sdmmon::monitor::hash::{Compression, MerkleTreeHash};
use sdmmon::monitor::{HardwareMonitor, MonitoringGraph};
use sdmmon::net::channel::Channel;
use sdmmon::net::download::RetryPolicy;
use sdmmon::net::resilience::{LossyChannel, OutageWindow};
use sdmmon::npu::core::Core;
use sdmmon::npu::trace::{Tee, Tracer};
use sdmmon::obs::EventBus;
use sdmmon::testkit::{run_campaign, CampaignConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every command measures from a clean registry, so `--metrics` output
    // reflects exactly this invocation (the registry is process-global).
    sdmmon::obs::metrics().reset();
    let result = match args.first().map(String::as_str) {
        Some("asm") => cmd_asm(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("deploy") => cmd_deploy(&args[1..]),
        Some("frontier") => cmd_frontier(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("stream") => cmd_stream(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            write_stderr(format_args!("{USAGE}"));
            return ExitCode::from(u8::from(args.is_empty()));
        }
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        // A reader that closed stdout early (`sdmmon … | head`) took all
        // the output it wanted: that is a success, not an error.
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            write_stderr(format_args!("error: {msg}\n\n{USAGE}"));
            ExitCode::from(1)
        }
        Err(CliError::Processing(msg)) => {
            write_stderr(format_args!("error: {msg}\n"));
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
sdmmon — network-processor hardware-monitor toolkit (DAC'14 reproduction)

USAGE:
    sdmmon asm    <file.s>   [-o <out.bin>] [--base <addr>]
    sdmmon disasm <file.bin> [--base <addr>]
    sdmmon graph  <file.s>   [--param <hex>] [--compression sum|xor|sbox|sip]
    sdmmon run    <file.s>   --packet <hex> [--param <hex>] [--trace <n>]
    sdmmon campaign [--seed <n>] [--budget <n>] [--routers <n>]
                    [--escape-trials <n>] [--out <path>]
                    [--events <path>] [--metrics <path>]
    sdmmon campaign --list                 (catalog of registered campaigns)
    sdmmon frontier [--seed <n>] [--quick] [--out <path>]
    sdmmon deploy [--routers <n>] [--cores <n>] [--seed <n>]
                  [--loss <p>] [--corrupt <p>] [--stall <p>]
                  [--outage <from:len>] [--blackhole <router>]
                  [--max-retries <n>] [--deploy-attempts <n>]
                  [--events <path>] [--metrics <path>]
    sdmmon deploy --relays <m> [--routers <n>] [--key-pool <n>] [--out <path>]
                  [...same fault/seed flags...]   (hierarchical fleet-scale)
    sdmmon bench  [--quick] [--shards <n>] [--metrics <path>]
    sdmmon stream [--quick] [--seed <n>] [--shards <n>] [--rounds <n>]
                  [--capacity <n>] [--out <path>] [--metrics <path>]
    sdmmon trace  [--quick] [--seed <n>] [--shards <n>] [--rounds <n>]
                  [--sample <per-mille>] [--out <path>] [--perfetto <path>]
                  [--events <path>] [--metrics <path>]
    sdmmon stats  [--seed <n>] [--packets <n>] [--cores <n>] [--shards <n>]
                  [--events <path>] [--metrics <path>]

`--events` writes the sdmmon-events-v1 JSONL stream; `--metrics` writes the
sdmmon-metrics-v1 snapshot. Both replay byte-identically per seed.
";

enum CliError {
    Usage(String),
    Processing(String),
    /// Stdout's reader went away; the command stops writing and exits 0.
    Closed,
}

/// Writes formatted command output to stdout, like `print!`, as a
/// `Result<(), CliError>`: every line the CLI prints goes through here, so
/// a closed pipe ends the command quietly instead of panicking.
macro_rules! emit {
    ($($arg:tt)*) => {
        stdout_written(std::io::Write::write_fmt(&mut std::io::stdout(), format_args!($($arg)*)))
    };
}

/// [`emit!`] plus a newline, like `println!`.
macro_rules! emitln {
    ($($arg:tt)*) => {
        emit!("{}\n", format_args!($($arg)*))
    };
}

/// Writes formatted text to stderr, like `eprint!`, but never panics:
/// once stderr's reader has gone there is nowhere left to report to, and
/// the exit code still says how the command ended.
fn write_stderr(text: std::fmt::Arguments<'_>) {
    let _ = std::io::Write::write_fmt(&mut std::io::stderr(), text);
}

/// Maps a failed stdout write: a broken pipe to [`CliError::Closed`],
/// anything else to a processing error.
fn stdout_written(result: std::io::Result<()>) -> Result<(), CliError> {
    result.map_err(|e| match e.kind() {
        std::io::ErrorKind::BrokenPipe => CliError::Closed,
        _ => processing(format!("cannot write to stdout: {e}")),
    })
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn processing(msg: impl std::fmt::Display) -> CliError {
    CliError::Processing(msg.to_string())
}

/// Writes `text` to `path`, creating parent directories as needed.
fn write_output(path: &str, text: &str) -> Result<(), CliError> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| processing(format!("cannot create {}: {e}", dir.display())))?;
        }
    }
    std::fs::write(path, text).map_err(|e| processing(format!("cannot write {path}: {e}")))
}

/// Writes the observability artifacts a command was asked for: the
/// rendered `sdmmon-events-v1` JSONL stream and/or the global
/// `sdmmon-metrics-v1` snapshot.
fn write_observability(
    events: Option<(&str, &EventBus)>,
    metrics_path: Option<&str>,
) -> Result<(), CliError> {
    if let Some((path, bus)) = events {
        write_output(path, &bus.render_jsonl())?;
        emitln!("events: {path} ({} events, sdmmon-events-v1)", bus.len())?;
    }
    if let Some(path) = metrics_path {
        write_output(path, &sdmmon::obs::metrics().snapshot_json())?;
        emitln!("metrics: {path} (sdmmon-metrics-v1)")?;
    }
    Ok(())
}

/// Tiny flag parser: positional arguments, `--flag value` options and
/// value-less switches such as `--quick`.
struct Args<'a> {
    positional: Vec<&'a str>,
    options: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(
        args: &'a [String],
        known_flags: &[&str],
        known_switches: &[&str],
    ) -> Result<Args<'a>, CliError> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if known_switches.contains(&a.as_str()) {
                switches.push(a.as_str());
            } else if a.starts_with('-') {
                if !known_flags.contains(&a.as_str()) {
                    return Err(usage(format!("unknown option `{a}`")));
                }
                let value = it
                    .next()
                    .ok_or_else(|| usage(format!("option `{a}` needs a value")))?;
                options.push((a.as_str(), value.as_str()));
            } else {
                positional.push(a.as_str());
            }
        }
        Ok(Args {
            positional,
            options,
            switches,
        })
    }

    /// Parses a command that takes options only: a stray positional
    /// argument is rejected like an unknown option.
    fn options_only(
        args: &'a [String],
        known_flags: &[&str],
        known_switches: &[&str],
    ) -> Result<Args<'a>, CliError> {
        let a = Args::parse(args, known_flags, known_switches)?;
        match a.positional.first() {
            Some(stray) => Err(usage(format!("unknown option `{stray}`"))),
            None => Ok(a),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    fn option(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// The value of `flag` parsed as a decimal `u64`, if given.
    fn number(&self, flag: &str, what: &str) -> Result<Option<u64>, CliError> {
        self.option(flag).map(|v| parse_u64(v, what)).transpose()
    }
}

fn parse_u32(text: &str, what: &str) -> Result<u32, CliError> {
    let body = text.strip_prefix("0x").unwrap_or(text);
    u32::from_str_radix(body, 16)
        .or_else(|_| text.parse::<u32>())
        .map_err(|_| usage(format!("cannot parse {what} `{text}`")))
}

fn parse_compression(text: &str) -> Result<Compression, CliError> {
    match text {
        "sum" => Ok(Compression::SumMod16),
        "xor" => Ok(Compression::Xor),
        "sbox" => Ok(Compression::SBox),
        "sip" => Ok(Compression::SipRound),
        other => Err(usage(format!(
            "unknown compression `{other}` (sum|xor|sbox|sip)"
        ))),
    }
}

fn parse_hex_bytes(text: &str) -> Result<Vec<u8>, CliError> {
    let clean: String = text
        .chars()
        .filter(|c| !c.is_whitespace() && *c != ':')
        .collect();
    if !clean.len().is_multiple_of(2) {
        return Err(usage("hex string has odd length"));
    }
    (0..clean.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&clean[i..i + 2], 16)
                .map_err(|_| usage(format!("bad hex byte `{}`", &clean[i..i + 2])))
        })
        .collect()
}

fn assemble_file(path: &str, base: u32) -> Result<sdmmon::isa::asm::Program, CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| processing(format!("cannot read {path}: {e}")))?;
    Assembler::new()
        .with_base(base)
        .assemble(&source)
        .map_err(|e| processing(format!("{path}: {e}")))
}

fn cmd_asm(args: &[String]) -> Result<(), CliError> {
    let a = Args::parse(args, &["-o", "--base"], &[])?;
    let [input] = a.positional[..] else {
        return Err(usage("asm expects exactly one input file"));
    };
    let base = a
        .option("--base")
        .map(|b| parse_u32(b, "base"))
        .transpose()?
        .unwrap_or(0);
    let program = assemble_file(input, base)?;
    let bytes = program.to_bytes();
    match a.option("-o") {
        Some(out) => {
            std::fs::write(out, &bytes)
                .map_err(|e| processing(format!("cannot write {out}: {e}")))?;
            emitln!(
                "{}: {} instructions, {} bytes -> {out}",
                input,
                program.words.len(),
                bytes.len()
            )?;
        }
        None => {
            for line in sdmmon::isa::disassemble(&program.words, program.base) {
                emitln!("{line}")?;
            }
        }
    }
    Ok(())
}

fn cmd_disasm(args: &[String]) -> Result<(), CliError> {
    let a = Args::parse(args, &["--base"], &[])?;
    let [input] = a.positional[..] else {
        return Err(usage("disasm expects exactly one input file"));
    };
    let base = a
        .option("--base")
        .map(|b| parse_u32(b, "base"))
        .transpose()?
        .unwrap_or(0);
    let bytes =
        std::fs::read(input).map_err(|e| processing(format!("cannot read {input}: {e}")))?;
    if !bytes.len().is_multiple_of(4) {
        return Err(processing("binary image must be a multiple of 4 bytes"));
    }
    let words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    for line in sdmmon::isa::disassemble(&words, base) {
        emitln!("{line}")?;
    }
    Ok(())
}

fn cmd_graph(args: &[String]) -> Result<(), CliError> {
    let a = Args::parse(args, &["--param", "--compression", "--base"], &[])?;
    let [input] = a.positional[..] else {
        return Err(usage("graph expects exactly one input file"));
    };
    let base = a
        .option("--base")
        .map(|b| parse_u32(b, "base"))
        .transpose()?
        .unwrap_or(0);
    let param = a
        .option("--param")
        .map(|p| parse_u32(p, "param"))
        .transpose()?
        .unwrap_or(0);
    let compression = a
        .option("--compression")
        .map(parse_compression)
        .transpose()?
        .unwrap_or(Compression::SBox);
    let program = assemble_file(input, base)?;
    let hash = MerkleTreeHash::with_compression(param, compression);
    let graph = MonitoringGraph::extract(&program, &hash).map_err(processing)?;

    let mut branch_nodes = 0usize;
    let mut indirect_nodes = 0usize;
    let mut terminal_nodes = 0usize;
    for (_, node) in graph.iter() {
        match node.successors.len() {
            0 => terminal_nodes += 1,
            1 => {}
            2 => branch_nodes += 1,
            _ => indirect_nodes += 1,
        }
    }
    emitln!("workload:      {input}")?;
    emitln!("instructions:  {}", graph.len())?;
    emitln!(
        "hash:          merkle-tree/{compression:?}, param 0x{param:08x}, {} bits",
        graph.hash_bits()
    )?;
    emitln!(
        "graph size:    {} bits compact, {} bytes on the wire",
        graph.compact_size_bits(),
        graph.to_bytes().len()
    )?;
    emitln!(
        "binary ratio:  {:.1}%",
        100.0 * graph.compact_size_bits() as f64 / (program.words.len() * 32) as f64
    )?;
    emitln!("node kinds:    {branch_nodes} two-way, {indirect_nodes} indirect, {terminal_nodes} terminal")?;
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let a = Args::parse(
        args,
        &["--packet", "--param", "--trace", "--base", "--compression"],
        &[],
    )?;
    let [input] = a.positional[..] else {
        return Err(usage("run expects exactly one input file"));
    };
    let packet = parse_hex_bytes(
        a.option("--packet")
            .ok_or_else(|| usage("run needs --packet <hex>"))?,
    )?;
    let base = a
        .option("--base")
        .map(|b| parse_u32(b, "base"))
        .transpose()?
        .unwrap_or(0);
    let param = a
        .option("--param")
        .map(|p| parse_u32(p, "param"))
        .transpose()?
        .unwrap_or(0x5eed);
    let compression = a
        .option("--compression")
        .map(parse_compression)
        .transpose()?
        .unwrap_or(Compression::SBox);
    let trace_len = a
        .option("--trace")
        .map(|t| t.parse::<usize>().map_err(|_| usage("bad --trace count")))
        .transpose()?
        .unwrap_or(0);

    let program = assemble_file(input, base)?;
    let hash = MerkleTreeHash::with_compression(param, compression);
    let graph = MonitoringGraph::extract(&program, &hash).map_err(processing)?;
    let mut monitor = HardwareMonitor::new(graph, hash);
    let mut core = Core::new();
    core.install(&program.to_bytes(), program.base);

    let outcome = if trace_len > 0 {
        let mut tracer = Tracer::keep_last(trace_len);
        let out = core.process_packet(
            &packet,
            &mut Tee {
                first: &mut tracer,
                second: &mut monitor,
            },
        );
        emitln!("--- last {} instructions ---", tracer.entries().count())?;
        emit!("{}", tracer.render())?;
        emitln!("----------------------------")?;
        out
    } else {
        core.process_packet(&packet, &mut monitor)
    };
    emitln!("verdict:  {}", outcome.verdict)?;
    emitln!("halt:     {}", outcome.halt)?;
    emitln!("steps:    {}", outcome.steps)?;
    emitln!(
        "monitor:  {} instructions checked, {} violations",
        monitor.stats().instructions_checked,
        monitor.stats().violations
    )?;
    Ok(())
}

fn parse_u64(text: &str, what: &str) -> Result<u64, CliError> {
    text.parse::<u64>()
        .map_err(|_| usage(format!("cannot parse {what} `{text}`")))
}

fn parse_prob(text: &str, what: &str) -> Result<f64, CliError> {
    let p = text
        .parse::<f64>()
        .map_err(|_| usage(format!("cannot parse {what} `{text}`")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(usage(format!(
            "{what} must be within 0.0..=1.0, got `{text}`"
        )));
    }
    Ok(p)
}

/// Renders one field of a structured event for human output (`?` when the
/// event does not carry the field).
fn event_field(event: &sdmmon::obs::Event, key: &str) -> String {
    use sdmmon::obs::Value;
    event
        .fields
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| match v {
            Value::U64(n) => n.to_string(),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
        })
        .unwrap_or_else(|| "?".to_owned())
}

/// The flags both `deploy` paths share — the resilient per-router path and
/// the `--relays` tree — parsed in one place. Only the defaults differ.
struct DeployFlags {
    routers: usize,
    cores: usize,
    seed: u64,
    loss: f64,
    corrupt: f64,
    stall: f64,
    max_retries: u32,
    deploy_attempts: u32,
    outage: Option<OutageWindow>,
    blackhole: Option<usize>,
}

impl DeployFlags {
    /// Parses the shared flags over the path's default fleet shape
    /// `(routers, cores)` and link fault rates `[loss, corrupt, stall]`.
    fn parse(a: &Args, shape: (usize, usize), rates: [f64; 3]) -> Result<DeployFlags, CliError> {
        let prob = |flag: &str, what: &str, default: f64| {
            a.option(flag).map_or(Ok(default), |v| parse_prob(v, what))
        };
        let budget = |flag: &str, what: &str, default: u32| {
            a.number(flag, what)?.map_or(Ok(default), |n| {
                u32::try_from(n).map_err(|_| usage(format!("{what} out of range")))
            })
        };
        Ok(DeployFlags {
            routers: a
                .number("--routers", "routers")?
                .map_or(shape.0, |n| n as usize),
            cores: a
                .number("--cores", "cores")?
                .map_or(shape.1, |n| n as usize),
            seed: a.number("--seed", "seed")?.unwrap_or(42),
            loss: prob("--loss", "loss probability", rates[0])?,
            corrupt: prob("--corrupt", "corruption probability", rates[1])?,
            stall: prob("--stall", "stall probability", rates[2])?,
            max_retries: budget("--max-retries", "max retries", 60)?,
            deploy_attempts: budget("--deploy-attempts", "deploy attempts", 3)?,
            outage: a
                .option("--outage")
                .map(|spec| {
                    let (from, len) = spec
                        .split_once(':')
                        .ok_or_else(|| usage("--outage wants `from:len` (e.g. 2:5)"))?;
                    Ok(OutageWindow {
                        from: parse_u64(from, "outage start")?,
                        len: parse_u64(len, "outage length")?,
                    })
                })
                .transpose()?,
            blackhole: a
                .number("--blackhole", "blackhole router")?
                .map(|n| n as usize),
        })
    }

    /// The one rule both paths enforce: a nonzero fleet, core count,
    /// transport retry budget and deploy-cycle budget, and a blackholed
    /// router inside the fleet.
    fn validate(&self) -> Result<(), CliError> {
        if self.routers == 0
            || self.cores == 0
            || self.max_retries == 0
            || self.deploy_attempts == 0
        {
            return Err(usage(
                "routers, cores, retries and attempts must be nonzero",
            ));
        }
        match self.blackhole {
            Some(victim) if victim >= self.routers => Err(usage(format!(
                "--blackhole {victim} is outside the fleet (0..{})",
                self.routers
            ))),
            _ => Ok(()),
        }
    }

    fn link(&self) -> LossyChannel {
        LossyChannel::clean(Channel::ideal_gigabit())
            .with_loss(self.loss)
            .with_corrupt(self.corrupt)
            .with_stall(self.stall)
    }

    fn retry(&self) -> RetryPolicy {
        RetryPolicy::default()
            .with_chunk_bytes(16 * 1024)
            .with_max_attempts(self.max_retries)
    }
}

fn cmd_deploy(args: &[String]) -> Result<(), CliError> {
    use sdmmon::core::entities::{Manufacturer, NetworkOperator};
    use sdmmon::core::system::{DeployPhase, Fleet, ResilientConfig};
    use sdmmon::net::channel::FileServer;
    use sdmmon::net::resilience::FlakyServer;
    use sdmmon::npu::supervisor::SupervisorPolicy;
    use sdmmon_rng::{RngCore, SeedableRng, StdRng};

    let a = Args::parse(
        args,
        &[
            "--routers",
            "--relays",
            "--cores",
            "--seed",
            "--loss",
            "--corrupt",
            "--stall",
            "--outage",
            "--blackhole",
            "--max-retries",
            "--deploy-attempts",
            "--key-pool",
            "--out",
            "--events",
            "--metrics",
        ],
        &[],
    )?;
    if !a.positional.is_empty() {
        return Err(usage("deploy takes no positional arguments"));
    }
    // `--relays` selects the hierarchical fleet-scale path: one shared
    // update, relays caching the ciphertext, per-router key wraps.
    if a.option("--relays").is_some() {
        return cmd_deploy_fleet(&a);
    }
    let flags = DeployFlags::parse(&a, (4, 2), [0.2, 0.05, 0.05])?;
    flags.validate()?;
    let (routers, cores, seed) = (flags.routers, flags.cores, flags.seed);

    let mut rng = StdRng::seed_from_u64(seed);
    let manufacturer = Manufacturer::new("acme", 512, &mut rng).map_err(processing)?;
    let mut operator = NetworkOperator::new("op", 512, &mut rng).map_err(processing)?;
    operator.accept_certificate(manufacturer.certify_operator(operator.public_key(), "op"));
    let program = sdmmon::npu::programs::ipv4_forward().map_err(processing)?;

    let mut server = FlakyServer::new(FileServer::new(), rng.next_u64());
    if let Some(window) = flags.outage {
        server.schedule_outage(window);
    }
    if let Some(victim) = flags.blackhole {
        server.blackhole(format!("pkg/router-{victim}.sdmmon"));
    }
    let config = ResilientConfig {
        link: flags.link(),
        retry: flags.retry(),
        max_deploy_attempts: flags.deploy_attempts,
        supervisor: SupervisorPolicy::default(),
    };

    let bus = a.option("--events").map(|_| EventBus::new());
    let mut result = Fleet::deploy_resilient(
        &manufacturer,
        &operator,
        &program,
        routers,
        cores,
        512,
        &mut server,
        &config,
        &mut rng,
        bus.as_ref(),
    )
    .map_err(processing)?;

    emitln!(
        "link: loss {:.2}, corrupt {:.2}, stall {:.2}; \
         {} transport retries x {} deploy cycles",
        flags.loss,
        flags.corrupt,
        flags.stall,
        flags.max_retries,
        flags.deploy_attempts
    )?;
    emitln!(
        "{:<12} {:<11} {:>6} {:>9} {:>9} {:>12}",
        "router",
        "phase",
        "cycles",
        "transport",
        "restarts",
        "network time"
    )?;
    for d in &result.deployments {
        let phase = match d.phase {
            DeployPhase::Installed => "installed",
            DeployPhase::Quarantined => "quarantined",
        };
        emitln!(
            "{:<12} {:<11} {:>6} {:>9} {:>9} {:>12}",
            d.router,
            phase,
            d.deploy_attempts,
            d.transport_attempts,
            d.integrity_restarts,
            format!("{:.3?}", d.network_time()),
        )?;
        if let Some(err) = &d.error {
            emitln!("{:<12}   last error: {err}", "")?;
        }
    }
    emitln!(
        "\nfleet: {}/{} installed, {} quarantined ({} server fetches; seed {seed}, \
         replays deterministically)",
        result.installed(),
        routers,
        result.quarantined(),
        server.stats().attempts,
    )?;

    // Post-deploy shakedown: drive a seeded instruction-memory fault burst
    // through each converged router so the graded supervisor's quarantine
    // and parole records land in this human output — previously they were
    // visible only on the `--events` JSONL stream. A private bus captures
    // the shakedown's `supervisor.*` events so the deploy event stream the
    // user asked for stays untouched.
    let image_base = program.base;
    let image_len = program.to_bytes().len() as u32;
    let parole_batches = config.supervisor.adaptive.parole_batches.max(1);
    emitln!(
        "\nshakedown: graded supervisor under instruction-memory faults (per converged router)"
    )?;
    for router in result.fleet.routers_mut() {
        if router.np().active_cores().is_empty() {
            continue;
        }
        let name = router.name().to_owned();
        let victim = (rng.next_u64() % cores as u64) as usize;
        let shakedown_bus = std::sync::Arc::new(EventBus::new());
        router.set_event_bus(Some(shakedown_bus.clone()));
        let probe = sdmmon::npu::programs::testing::ipv4_packet(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            64,
            b"shakedown",
        );
        let mut faults = 0u32;
        // Each flip lands on a random text word; violations escalate the
        // EWMA threat score until the supervisor quarantines the core (a
        // recovery reset heals the image after every detected hit, so the
        // burst needs repeated flips). Bounded so an unlucky seed cannot
        // spin forever on flips that miss the executed path.
        for _ in 0..24 {
            if router.np().is_quarantined(victim) {
                break;
            }
            sdmmon::testkit::fault::flip_text_bit(
                router.core_mut(victim),
                image_base,
                image_len,
                &mut rng,
            );
            router.process_on(victim, &probe);
            faults += 1;
        }
        // Heal any flip a clean completion left behind, then run clean
        // batches until the parole clock walks the core back to a full
        // dispatch share (quarantine -> throttled -> full). A router whose
        // only core sits in quarantine has nothing left to dispatch to, so
        // its core stays out of dispatch.
        router.reset_core(victim);
        let clean: Vec<Vec<u8>> = (0..8u8)
            .map(|i| {
                sdmmon::npu::programs::testing::ipv4_packet(
                    [10, 1, i, 1],
                    [10, 0, 0, 2],
                    64,
                    b"parole",
                )
            })
            .collect();
        for _ in 0..(2 * parole_batches + 1) {
            if router.np().active_cores().is_empty() {
                break;
            }
            router.process_batch(&clean);
        }
        router.set_event_bus(None);
        let health = router.np().core_health(victim);
        emitln!(
            "{:<12} core {victim}: {faults} faulted packets, peak threat {}, now {} ({})",
            name,
            health.peak_threat.name(),
            health.threat.name(),
            if router.np().active_cores().contains(&victim) {
                if router.np().is_throttled(victim) {
                    "throttled"
                } else {
                    "full dispatch share"
                }
            } else {
                "out of dispatch"
            },
        )?;
        let mut forensics = 0u64;
        for event in shakedown_bus.take() {
            match event.kind {
                "supervisor.throttle" | "supervisor.quarantine" | "supervisor.zeroize" => {
                    emitln!(
                        "{:<12}   {} at packet {} (threat {}, score {})",
                        "",
                        event.kind.trim_start_matches("supervisor."),
                        event.clock,
                        event_field(&event, "level"),
                        event_field(&event, "score"),
                    )?;
                }
                "supervisor.parole" => {
                    emitln!(
                        "{:<12}   parole at batch clock {} restores {} share (threat {})",
                        "",
                        event.clock,
                        event_field(&event, "restored"),
                        event_field(&event, "level"),
                    )?;
                }
                "supervisor.forensic" => forensics += 1,
                _ => {}
            }
        }
        if forensics > 0 {
            emitln!(
                "{:<12}   {forensics} forensic pre-detection events captured (see --events)",
                ""
            )?;
        }
    }

    let events = a.option("--events").zip(bus.as_ref());
    write_observability(events, a.option("--metrics"))?;
    if result.installed() == 0 {
        return Err(processing(
            "no router converged: the whole fleet quarantined",
        ));
    }
    Ok(())
}

/// `sdmmon deploy --relays M`: the hierarchical fleet-scale campaign —
/// operator → relays → routers, shared-package encryption with per-router
/// key wraps, wire-format v2 with per-section checksums. Writes the
/// byte-stable `sdmmon-fleet-v1` report to `--out`.
fn cmd_deploy_fleet(a: &Args) -> Result<(), CliError> {
    use sdmmon::core::distrib::{deploy_fleet, FleetDeployConfig};
    use sdmmon::testkit::fleet_report_json;

    let flags = DeployFlags::parse(a, (64, 1), [0.05, 0.02, 0.02])?;
    let relays = a.number("--relays", "relays")?.unwrap_or(4) as usize;
    let key_pool = a.number("--key-pool", "key pool")?.unwrap_or(64) as usize;
    if flags.routers == 0 || relays == 0 || flags.cores == 0 || key_pool == 0 {
        return Err(usage("routers, relays, cores and key-pool must be nonzero"));
    }
    flags.validate()?;
    let (seed, loss, corrupt, stall) = (flags.seed, flags.loss, flags.corrupt, flags.stall);

    let cfg = FleetDeployConfig {
        routers: flags.routers,
        relays,
        cores_each: flags.cores,
        key_pool,
        link: flags.link(),
        retry: flags.retry(),
        max_deploy_attempts: flags.deploy_attempts,
        outage: flags.outage,
        blackhole_router: flags.blackhole,
        ..FleetDeployConfig::default()
    };
    let program = sdmmon::npu::programs::ipv4_forward().map_err(processing)?;
    let bus = a.option("--events").map(|_| EventBus::new());
    let report = deploy_fleet(&cfg, &program, seed, bus.as_ref()).map_err(processing)?;
    emitln!(
        "tree: {} routers over {} relays, {} core(s) each, {} distinct keys; \
         link loss {loss:.2} corrupt {corrupt:.2} stall {stall:.2}",
        report.routers,
        report.relays,
        report.cores_each,
        report.key_pool
    )?;
    emitln!("{}", report.summary())?;
    for row in report.rows.iter().filter(|r| !r.installed) {
        emitln!(
            "  quarantined router {} (relay {}, {} cycles): {}",
            row.router,
            row.relay,
            row.cycles,
            row.error.as_deref().unwrap_or("unknown"),
        )?;
    }
    let out = a.option("--out").unwrap_or("target/FLEET.json");
    write_output(out, &fleet_report_json(&report).render(0))?;
    emitln!("report: {out} (seed {seed}, replays byte-identically)")?;
    let events = a.option("--events").zip(bus.as_ref());
    write_observability(events, a.option("--metrics"))?;
    if report.installed == 0 {
        return Err(processing(
            "no router converged: the whole fleet quarantined",
        ));
    }
    Ok(())
}

/// `sdmmon bench`: the performance gate harness. Runs the bit-sliced hash,
/// sharded-engine and sampled-tracing gates, prints each gate's table,
/// and fails naming every gate that missed its threshold.
fn cmd_bench(args: &[String]) -> Result<(), CliError> {
    use sdmmon::bench::hashbench::{self, HashBenchConfig};
    use sdmmon::bench::sharded::{self, ShardedConfig};
    use sdmmon::bench::traceprof::{self, TraceProfConfig, OVERHEAD_GATE_PCT};

    let a = Args::options_only(args, &["--shards", "--metrics"], &["--quick"])?;
    let quick = a.switch("--quick");
    let max_shards = a
        .option("--shards")
        .map(|v| match v.parse::<usize>() {
            Ok(0) => Err(usage("--shards must be nonzero")),
            Ok(n) => Ok(n),
            Err(_) => Err(usage(format!("cannot parse shard count `{v}`"))),
        })
        .transpose()?;
    let mut failed = Vec::new();

    // Bit-sliced hash gate on the headline compression (sip — the one
    // whose scalar tree the compiler cannot collapse, so the ratio is the
    // honest tree-vs-SWAR comparison; see `HashBenchReport::headline`).
    // It runs first: after the sharded sweep the same code read below 4x
    // more than twice as often on a 2-core host.
    let report = hashbench::run(&HashBenchConfig::new(quick));
    emit!("{}", report.table())?;
    let headline = report.headline();
    emitln!(
        "\nheadline: {:.2}x scalar for `{}` ({} words, best of {}; \
         outputs identical to the scalar oracle)\n",
        headline.speedup(),
        headline.label(),
        report.words,
        report.repeats,
    )?;
    if headline.speedup() < 4.0 {
        failed.push(format!(
            "hash: bit-sliced `{}` reads {:.2}x scalar, below the 4x gate",
            headline.label(),
            headline.speedup(),
        ));
    }

    // Sharded-engine gate: the persistent-pool engine must not fall below
    // serial reference dispatch (the spawn-per-batch regression did).
    let report = sharded::run(&ShardedConfig::new(quick, max_shards));
    emit!("{}", report.table())?;
    let headline = report.headline();
    let speedup = report.speedup(&headline);
    emitln!(
        "\nheadline: {speedup:.2}x serial at {} shards ({} packets, best of {}; \
         outcomes and NpStats byte-identical to serial)\n",
        headline.shards,
        report.packets,
        report.repeats,
    )?;
    if speedup < 1.0 {
        failed.push(format!(
            "sharded: the engine reads {speedup:.2}x serial, below the 1.0x gate"
        ));
    }

    // Sampled-tracing gate: tracing may cost at most 5% of admitted pps.
    let report = traceprof::run(&TraceProfConfig::new(quick));
    emit!("{}", report.table())?;
    emitln!(
        "\nheadline: sampled tracing costs {:.2}% of admitted pps (gate \
         {OVERHEAD_GATE_PCT}%; best of {}; outcomes and NpStats identical \
         with tracing off and on)",
        report.overhead_pct(),
        report.repeats,
    )?;
    if !report.within_gate() {
        failed.push(format!(
            "tracing: sampled tracing costs {:.2}%, above the {OVERHEAD_GATE_PCT}% gate",
            report.overhead_pct(),
        ));
    }

    write_observability(None, a.option("--metrics"))?;
    if failed.is_empty() {
        Ok(())
    } else {
        Err(processing(format!(
            "{} of 3 gates failed: {}",
            failed.len(),
            failed.join("; ")
        )))
    }
}

/// `sdmmon frontier`: sweeps the graded supervisor's policy ladder over
/// the seeded attack-scenario grid and reports the availability-vs-
/// security frontier — packets served vs evasive escapes admitted — as an
/// ASCII table and a byte-stable `sdmmon-frontier-v1` JSON document.
fn cmd_frontier(args: &[String]) -> Result<(), CliError> {
    use sdmmon::testkit::frontier::{frontier_json, frontier_table, run_frontier, FrontierConfig};

    let a = Args::options_only(args, &["--seed", "--out"], &["--quick"])?;
    let seed = a.number("--seed", "seed")?.unwrap_or(0xF407);
    let out = a.option("--out").unwrap_or("target/FRONTIER.json");

    let mut cfg = FrontierConfig::new(seed);
    if a.switch("--quick") {
        cfg = cfg.quick();
    }
    let report = run_frontier(&cfg).map_err(processing)?;
    emit!("{}", frontier_table(&report))?;
    match report.verify_monotone() {
        Ok(()) => {
            emitln!("frontier: monotone — stricter policies trade served packets for escapes")?
        }
        Err(msg) => emitln!("frontier: NOT monotone at this seed ({msg})")?,
    }
    write_output(out, &(frontier_json(&report).render(0) + "\n"))?;
    emitln!("report: {out} (sdmmon-frontier-v1, seed {seed}, replays byte-identically)")?;
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), CliError> {
    // `--list` is a switch, so it is recognized before the value-flag
    // parser sees the argument vector.
    if args.iter().any(|a| a == "--list") {
        if args.len() != 1 {
            return Err(usage("`campaign --list` takes no other options"));
        }
        for (name, desc) in sdmmon::testkit::campaign::CAMPAIGN_CATALOG {
            emitln!("{name:<20} {desc}")?;
        }
        return Ok(());
    }
    let a = Args::parse(
        args,
        &[
            "--seed",
            "--budget",
            "--routers",
            "--escape-trials",
            "--out",
            "--events",
            "--metrics",
        ],
        &[],
    )?;
    if !a.positional.is_empty() {
        return Err(usage("campaign takes no positional arguments"));
    }
    let seed = a.number("--seed", "seed")?.unwrap_or(42);
    let mut config = CampaignConfig::new(seed);
    if let Some(b) = a.option("--budget") {
        let budget = parse_u64(b, "budget")?;
        // Unless overridden, the statistical escape model scales with the
        // adversarial budget.
        config = config
            .with_budget(budget)
            .with_escape_trials(budget.saturating_mul(10));
    }
    if let Some(r) = a.option("--routers") {
        config = config.with_routers(
            parse_u64(r, "routers")?
                .try_into()
                .map_err(|_| usage("router count out of range"))?,
        );
    }
    if let Some(t) = a.option("--escape-trials") {
        config = config.with_escape_trials(parse_u64(t, "escape trials")?);
    }
    let out = a.option("--out").unwrap_or("target/CAMPAIGN.json");

    let bus = a.option("--events").map(|_| EventBus::new());
    let report = run_campaign(&config).map_err(processing)?;
    if let Some(bus) = &bus {
        bus.extend(report.to_events());
    }
    emit!("{}", report.summary())?;
    report
        .verify_accounting()
        .map_err(|msg| processing(format!("accounting violated: {msg}")))?;
    let divergences = report.differential.total_divergences();
    if divergences > 0 {
        return Err(processing(format!(
            "{divergences} differential divergence(s): a fast path disagrees with its oracle"
        )));
    }
    write_output(out, &report.to_json())?;
    emitln!("\nreport: {out} (seed {seed}, replays byte-identically)")?;
    let events = a.option("--events").zip(bus.as_ref());
    write_observability(events, a.option("--metrics"))?;
    Ok(())
}

/// `sdmmon stream`: pushes open-loop heavy-tailed traffic through the
/// streaming ingest engine — bounded per-shard admission control plus
/// deterministic work stealing of whole core queues — then re-runs the
/// identical rounds through the serial streaming oracle and fails (exit 2)
/// unless outcomes, `NpStats`, and backpressure accounting are
/// byte-identical. Writes the timing-free `sdmmon-stream-v1` JSON report,
/// a pure function of the seed: running the command twice must produce the
/// identical file, which is exactly what `ci.sh` gates.
fn cmd_stream(args: &[String]) -> Result<(), CliError> {
    use sdmmon::bench::hijack::{HijackScenario, CORES};
    use sdmmon::npu::np::StreamConfig;
    use sdmmon::obs::{percentile, Hist};

    let a = Args::options_only(
        args,
        &[
            "--seed",
            "--shards",
            "--rounds",
            "--capacity",
            "--out",
            "--metrics",
        ],
        &["--quick"],
    )?;
    let seed = a.number("--seed", "seed")?.unwrap_or(0x57AE);
    let shards = a.number("--shards", "shards")?.unwrap_or(4) as usize;
    let default_rounds = if a.switch("--quick") { 6 } else { 24 };
    let round_count = a.number("--rounds", "rounds")?.unwrap_or(default_rounds) as usize;
    let capacity = a.number("--capacity", "capacity")?.unwrap_or(48) as usize;
    let out = a.option("--out").unwrap_or("target/STREAM.json");
    let metrics_path = a.option("--metrics");
    if shards == 0 || capacity == 0 || round_count == 0 {
        return Err(usage("shards, capacity and rounds must be nonzero"));
    }
    if shards > CORES {
        return Err(usage(format!(
            "at most {CORES} shards on an {CORES}-core NP"
        )));
    }

    // The hijack scenario keeps offering whether or not the NP keeps up
    // (backpressure), and its attacks walk the supervisor ladder
    // mid-stream, so the byte-identity check covers escalation,
    // forensics, and parole — not just clean forwarding.
    let scenario = HijackScenario::new(seed, round_count);
    let rounds = &scenario.rounds;
    let cfg = StreamConfig {
        shard_capacity: capacity,
    };

    let mut np = scenario.np(shards);
    let streamed = np.process_stream(rounds, &cfg);
    let stream_stats = np.stats();
    // Queue-delay percentiles from the streaming run only (the oracle
    // below records into the same process-global histogram).
    let delay = sdmmon::obs::metrics().hist_buckets(Hist::StreamQueueDelay);
    let (p50, p99, p999) = (
        percentile(&delay, 500),
        percentile(&delay, 990),
        percentile(&delay, 999),
    );

    let mut oracle = scenario.np(shards);
    let want = oracle.process_stream_serial(rounds, &cfg);
    // The oracle never steals, so compare everything but the steal count.
    let accounting =
        |r: sdmmon::npu::np::StreamReport| (r.rounds, r.offered, r.admitted, r.dropped);
    if streamed.outcomes != want.outcomes
        || accounting(streamed.report) != accounting(want.report)
        || stream_stats != oracle.stats()
    {
        return Err(processing(format!(
            "streaming engine diverged from its serial oracle at {shards} shards \
             (seed {seed}): stream {:?} vs serial {:?}",
            streamed.report, want.report
        )));
    }

    let report = streamed.report;
    let drop_rate = report.dropped as f64 / report.offered.max(1) as f64;
    emitln!(
        "seed {seed}: {round_count} rounds, {CORES} cores, {shards} shard(s), \
         ingress budget {capacity}/shard"
    )?;
    emitln!(
        "stream: offered {} / admitted {} / dropped {} ({:.1}%) / steals {}",
        report.offered,
        report.admitted,
        report.dropped,
        drop_rate * 100.0,
        report.steals,
    )?;
    emitln!("queue delay (packets ahead at admission): p50 {p50} / p99 {p99} / p999 {p999}")?;
    emitln!("np stats: {}", stream_stats.to_json())?;
    emitln!("byte-identical to the serial streaming oracle: yes")?;

    // Timing-free by construction: every value below is a deterministic
    // function of the seed and the knobs, so the file replays byte for
    // byte run after run.
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"sdmmon-stream-v1\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"cores\": {CORES},\n"));
    json.push_str(&format!("  \"shards\": {shards},\n"));
    json.push_str(&format!("  \"rounds\": {round_count},\n"));
    json.push_str(&format!("  \"shard_capacity\": {capacity},\n"));
    json.push_str(&format!("  \"offered\": {},\n", report.offered));
    json.push_str(&format!("  \"admitted\": {},\n", report.admitted));
    json.push_str(&format!("  \"dropped\": {},\n", report.dropped));
    json.push_str(&format!("  \"drop_rate\": {drop_rate:.4},\n"));
    json.push_str(&format!("  \"steals\": {},\n", report.steals));
    json.push_str(&format!("  \"queue_delay_p50\": {p50},\n"));
    json.push_str(&format!("  \"queue_delay_p99\": {p99},\n"));
    json.push_str(&format!("  \"queue_delay_p999\": {p999},\n"));
    json.push_str(&format!("  \"np\": {},\n", stream_stats.to_json()));
    json.push_str("  \"byte_identical\": true\n}\n");
    write_output(out, &json)?;
    emitln!("report: {out} (sdmmon-stream-v1, seed {seed}, replays byte-identically)")?;
    write_observability(None, metrics_path)?;
    Ok(())
}

/// `sdmmon trace`: the causal-observability scenario. Pushes the same
/// seeded open-loop hijack-salted traffic as `sdmmon stream` through the
/// streaming engine with the span/trace layer armed, runs a small traced
/// fleet deployment, reassembles the span events into
/// ingest → admission → dispatch → verify → respond chains (and the
/// fleet-side operator → relay → install chains), and writes the versioned
/// `sdmmon-trace-v1` JSON artifact.
///
/// Sampling and trace ids are pure functions of `(seed, flow)`, and the
/// ingress capacity is fixed at 512/shard — above the worst-case round of
/// the open-loop source (24 bursts × 16 packets) — so admission never
/// drops and the artifact is byte-identical not only across reruns at one
/// seed but across shard counts (which is why the file records no shard
/// count). `--perfetto` additionally exports a Chrome/Perfetto
/// `traceEvents` JSON using the logical clocks as timestamps.
fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    use sdmmon::bench::hijack::{HijackScenario, CORES};
    use sdmmon::core::distrib::{deploy_fleet, FleetDeployConfig};
    use sdmmon::npu::np::StreamConfig;
    use sdmmon::obs::trace::TraceContext;
    use sdmmon::obs::{assemble_traces, write_json_string, TRACE_SCHEMA};
    use std::sync::Arc;

    let a = Args::options_only(
        args,
        &[
            "--seed",
            "--shards",
            "--rounds",
            "--sample",
            "--out",
            "--perfetto",
            "--events",
            "--metrics",
        ],
        &["--quick"],
    )?;
    let quick = a.switch("--quick");
    let seed = a.number("--seed", "seed")?.unwrap_or(0x57AE);
    let shards = a.number("--shards", "shards")?.unwrap_or(4) as usize;
    let round_count = a
        .number("--rounds", "rounds")?
        .unwrap_or(if quick { 6 } else { 24 }) as usize;
    let sample = a.number("--sample", "sample")?.unwrap_or(64);
    let out = a.option("--out").unwrap_or("target/TRACE.json");
    let perfetto_path = a.option("--perfetto");
    let events_path = a.option("--events");
    let metrics_path = a.option("--metrics");
    if shards == 0 || round_count == 0 {
        return Err(usage("shards and rounds must be nonzero"));
    }
    if !(1..=1000).contains(&sample) {
        return Err(usage("--sample is per-mille, 1..=1000"));
    }
    if shards > CORES {
        return Err(usage(format!(
            "at most {CORES} shards on an {CORES}-core NP"
        )));
    }
    // Worst-case open-loop round is 24 bursts × 16 packets = 384; a
    // 512/shard budget guarantees zero admission drops, the precondition
    // for the artifact being invariant across shard counts.
    const CAPACITY: usize = 512;

    // The same hijack scenario as `sdmmon stream`, so the trace artifact
    // describes the traffic the streaming gate already pins.
    let scenario = HijackScenario::new(seed, round_count);
    let bus = Arc::new(EventBus::traced(TraceContext::new(seed, sample as u16)));
    let mut np = scenario.np(shards);
    np.set_event_bus(Some(bus.clone()));
    let cfg = StreamConfig {
        shard_capacity: CAPACITY,
    };
    let streamed = np.process_stream(&scenario.rounds, &cfg);
    let report = streamed.report;
    if report.dropped != 0 {
        return Err(processing(format!(
            "trace scenario must not drop at admission (capacity {CAPACITY}), \
             but dropped {} of {}",
            report.dropped, report.offered
        )));
    }

    // Control-plane phase: a small traced fleet rollout on the same bus.
    let fleet_cfg = FleetDeployConfig {
        routers: if quick { 4 } else { 8 },
        relays: 2,
        key_pool: 4,
        ..FleetDeployConfig::default()
    };
    let fleet = deploy_fleet(&fleet_cfg, &scenario.program, seed ^ 0xF1EE7, Some(&bus))
        .map_err(processing)?;

    if let Some(path) = events_path {
        write_output(path, &bus.render_jsonl())?;
        emitln!("events: {path} ({} events, sdmmon-events-v1)", bus.len())?;
    }
    let events = bus.take();
    let traces = assemble_traces(&events);
    let sampled_traces = traces.iter().filter(|t| t.sampled).count();
    let flight_traces = traces.iter().filter(|t| !t.sampled).count();
    let span_count: usize = traces.iter().map(|t| t.spans.len()).sum();

    let window = TraceContext::DEFAULT_FLIGHT_WINDOW;
    emitln!(
        "seed {seed}: {round_count} rounds, {CORES} cores, sample {sample}\u{2030}, \
         flight window {window}"
    )?;
    emitln!(
        "stream: offered {} / admitted {} (no drops by construction), fleet {}/{} installed",
        report.offered,
        report.admitted,
        fleet.installed,
        fleet_cfg.routers
    )?;
    emitln!(
        "traces: {} ({} sampled, {} flight-promoted), {span_count} spans",
        traces.len(),
        sampled_traces,
        flight_traces
    )?;

    // The artifact: everything below is a pure function of the seed and
    // the knobs above — no shard count, no wall clock — so it replays
    // byte-identically per seed at every shard count.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"schema\": \"{TRACE_SCHEMA}\",\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"cores\": {CORES},\n"));
    json.push_str(&format!("  \"rounds\": {round_count},\n"));
    json.push_str(&format!("  \"sample_per_mille\": {sample},\n"));
    json.push_str(&format!("  \"flight_window\": {window},\n"));
    json.push_str(&format!("  \"offered\": {},\n", report.offered));
    json.push_str(&format!("  \"admitted\": {},\n", report.admitted));
    json.push_str(&format!("  \"fleet_routers\": {},\n", fleet_cfg.routers));
    json.push_str(&format!("  \"fleet_installed\": {},\n", fleet.installed));
    json.push_str(&format!("  \"sampled_traces\": {sampled_traces},\n"));
    json.push_str(&format!("  \"flight_traces\": {flight_traces},\n"));
    json.push_str(&format!("  \"spans\": {span_count},\n"));
    json.push_str("  \"traces\": [\n");
    for (ti, t) in traces.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": {}, \"flow\": {}, \"sampled\": {}, \"spans\": [\n",
            t.id, t.flow, t.sampled
        ));
        for (si, s) in t.spans.iter().enumerate() {
            let stage = s.stage.name();
            json.push_str(&format!(
                "      {{\"id\": {}, \"parent\": {}, \"stage\": \"{stage}\", \"clock\": {}, \
                 \"entity\": {}, \"cost\": {}, \"note\": ",
                s.id, s.parent, s.clock, s.entity, s.cost
            ));
            write_json_string(&mut json, &s.note);
            json.push('}');
            if si + 1 < t.spans.len() {
                json.push(',');
            }
            json.push('\n');
        }
        json.push_str("    ]}");
        if ti + 1 < traces.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("  ]\n}\n");
    write_output(out, &json)?;
    emitln!("report: {out} (sdmmon-trace-v1, seed {seed}, replays byte-identically)")?;

    if let Some(path) = perfetto_path {
        // Chrome trace-event format: complete events (`ph: "X"`) with the
        // logical clock as the microsecond timestamp, one pid per trace.
        let mut pj = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        for (ti, t) in traces.iter().enumerate() {
            for s in &t.spans {
                if !first {
                    pj.push_str(",\n");
                }
                first = false;
                pj.push_str(&format!(
                    "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {}, \
                     \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"trace\": {}, \
                     \"note\": ",
                    s.stage.name(),
                    if t.sampled { "sampled" } else { "flight" },
                    s.clock,
                    s.cost.max(1),
                    ti,
                    s.entity.max(0),
                    t.id
                ));
                write_json_string(&mut pj, &s.note);
                pj.push_str("}}");
            }
        }
        pj.push_str("\n]}\n");
        write_output(path, &pj)?;
        emitln!("perfetto: {path} (chrome trace-event JSON, logical clocks)")?;
    }
    write_observability(None, metrics_path)?;
    Ok(())
}

/// `sdmmon stats`: drives seeded mixed traffic — benign forwards, policy
/// drops, and hijack bursts dense enough to push cores through the
/// supervisor's redeploy/quarantine ladder — through the sharded batch
/// engine with hardware monitors armed, then prints the NP counters and
/// the metrics-registry snapshot. The whole run is a deterministic
/// function of `--seed`, so `--events`/`--metrics` artifacts replay
/// byte-identically.
fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    use sdmmon::npu::np::NetworkProcessor;
    use sdmmon::npu::programs::{self, testing};
    use sdmmon::npu::supervisor::SupervisorPolicy;
    use sdmmon_rng::{Rng, SeedableRng, StdRng};
    use std::sync::Arc;

    let a = Args::parse(
        args,
        &[
            "--seed",
            "--packets",
            "--cores",
            "--shards",
            "--events",
            "--metrics",
        ],
        &[],
    )?;
    if !a.positional.is_empty() {
        return Err(usage("stats takes no positional arguments"));
    }
    let seed = a.number("--seed", "seed")?.unwrap_or(42);
    let packet_count = a.number("--packets", "packets")?.unwrap_or(512) as usize;
    let cores = a.number("--cores", "cores")?.unwrap_or(4) as usize;
    let shards = a.number("--shards", "shards")?.unwrap_or(4) as usize;
    if cores == 0 || shards == 0 || packet_count == 0 {
        return Err(usage("packets, cores and shards must be nonzero"));
    }

    // The deliberately vulnerable forwarder: hijack packets smash its
    // stack, the per-core monitors catch the control-flow deviation, and
    // repeated strikes walk the supervisor ladder.
    let program = programs::vulnerable_forward().map_err(processing)?;
    let image = program.to_bytes();
    let policy = SupervisorPolicy::ladder(2, 2);
    let mut np = NetworkProcessor::with_policy(cores, policy);
    np.install_all(&image, program.base, |i| {
        let hash = MerkleTreeHash::new(0x0b5e_55ed ^ i as u32);
        let graph = MonitoringGraph::extract(&program, &hash).expect("embedded workload extracts");
        Box::new(HardwareMonitor::new(graph, hash))
    });
    np.set_shards(shards);
    let bus = a.option("--events").map(|_| Arc::new(EventBus::new()));
    np.set_event_bus(bus.clone());

    // Mixed traffic: an attack burst up front (contiguous per-flow, so the
    // ladder tops out early and the event stream shows the transitions),
    // then a seeded benign/attack mix. Two batches, so the second one
    // repartitions against whatever degraded core set the first left.
    let attacks: Vec<Vec<u8>> = (0..4)
        .map(|i| {
            testing::hijack_packet(&format!("li $t5, {i}\nbreak 1")).expect("attack assembles")
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity(packet_count + 16);
    for attack in &attacks {
        for _ in 0..4 {
            packets.push(attack.clone());
        }
    }
    while packets.len() < packet_count + 16 {
        if rng.gen_range(0..8u32) == 0 {
            packets.push(attacks[rng.gen_range(0..attacks.len())].clone());
        } else {
            let src = [10, rng.gen_range(0..4u8), rng.gen_range(0..250u8), 1];
            let dst = [10, 0, 0, rng.gen_range(1..=16u8)];
            packets.push(testing::ipv4_packet(src, dst, 64, b"stats pay"));
        }
    }
    let split = packets.len() / 2;
    np.process_batch(&packets[..split]);
    np.process_batch(&packets[split..]);

    let stats = np.stats();
    emitln!(
        "seed {seed}: {} packets, {cores} cores, {shards} shard(s)",
        packets.len()
    )?;
    emitln!("np stats: {}", stats.to_json())?;
    // Tail view of the power-of-two detection-latency histogram: how many
    // executed instructions an attack survived before a monitor flagged it.
    let latency = sdmmon::obs::metrics().hist_buckets(sdmmon::obs::Hist::DetectionLatencySteps);
    if latency.iter().any(|&c| c > 0) {
        emitln!(
            "detection latency (instructions, bucket lower bounds): p50 {} / p99 {} / p999 {}",
            sdmmon::obs::percentile(&latency, 500),
            sdmmon::obs::percentile(&latency, 990),
            sdmmon::obs::percentile(&latency, 999),
        )?;
    }
    emit!("{}", sdmmon::obs::metrics().snapshot_json())?;
    let events = a.option("--events").zip(bus.as_deref());
    write_observability(events, a.option("--metrics"))?;
    Ok(())
}
