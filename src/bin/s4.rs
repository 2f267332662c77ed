//! `s4` — a command-line front end for S4 disk images.
//!
//! The §3.6 "version and administration tools" as a CLI: time-enhanced
//! `ls` and `cat`, restoration from the history pool, and audit-log
//! inspection, all against a persistent disk-image file.
//!
//! ```console
//! $ s4 format image.s4 256          # 256 MB self-securing image
//! $ s4 put image.s4 docs/plan.txt < plan.txt
//! $ s4 ls image.s4 docs
//! $ s4 cat image.s4 docs/plan.txt
//! $ s4 rm image.s4 docs/plan.txt
//! $ s4 ls image.s4 docs --at 12.5  # the directory 12.5 sim-seconds in
//! $ s4 cat image.s4 docs/plan.txt --at 12.5
//! $ s4 restore image.s4 docs/plan.txt 12.5
//! $ s4 audit image.s4
//! ```
//!
//! Simulated time inside the image advances with activity and persists
//! across invocations; `--at <secs>` addresses that timeline.

use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use s4_array::{ArrayConfig, S4Array};
use s4_clock::{NetworkModel, SimClock, SimDuration, SimTime};
use s4_core::{AuditRecord, ClientId, DriveConfig, ObjectId, RequestContext, S4Drive, UserId};
use s4_fs::{FileKind, FileServer, LoopbackTransport, S4FileServer, S4FsConfig};
use s4_simdisk::{BlockDev, FileDisk};

const PARTITION: &str = "root";

/// A failed command: the message `main` prints after `s4: `. Anything
/// printable converts (`FsError`, `S4Error`, `io::Error`, a literal), so
/// `?` suffices wherever the error's own text is the message.
struct CliError(String);

impl<E: std::fmt::Display> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError(e.to_string())
    }
}

/// The admin context for `drive`: the CLI works on the image itself, so
/// it holds the drive's own token.
fn admin_of<D: BlockDev>(drive: &S4Drive<D>) -> RequestContext {
    RequestContext::admin(ClientId(0), drive.config().admin_token)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: s4 <command> <image> [args]\n\
         commands:\n\
           format <image> <megabytes>\n\
           put <image> <path>            (content from stdin)\n\
           cat <image> <path> [--at <secs>]\n\
           ls <image> [path] [--at <secs>]\n\
           rm <image> <path>\n\
           mkdir <image> <path>\n\
           restore <image> <path> <secs>\n\
           pin <image> <path> <secs>     (landmark: survives the window)\n\
           pins <image> <path>\n\
           audit <image>\n\
           stats <image> [<image>...] [--mirrors <m>]\n\
                                         (metrics + audit-log tail; several\n\
                                          images = array mode, per-shard + aggregate)\n\
           reshard <image>... --targets <new-image>... [--slot <n>] [--mirrors <m>]\n\
                                         (split an array's residue classes onto fresh\n\
                                          images: all slots without --slot, one with;\n\
                                          target images are created, one per mirror)\n\
           txn <image> [<image>...] [--mirrors <m>]\n\
                                         (cross-shard transaction status; mounting\n\
                                          resolves any in-doubt transactions)\n\
           trace <image> [<image>...] [<trace-id-hex>] [--slowest <k>] [--mirrors <m>]\n\
                                         (cross-shard causal trace assembly from the\n\
                                          member audit logs: one id renders its\n\
                                          tree, --slowest the k worst, neither lists all)\n\
           detect <image>                (run the intrusion detectors over the audit log)\n\
           plan <image> <secs> --client <id> [--user <id>]   (recovery plan for intrusion at <secs>)\n\
           revert <image> <secs> --client <id> [--user <id>] (plan and execute the recovery)\n\
           now <image>"
    );
    ExitCode::from(2)
}

/// Every flag a subcommand reads; each takes a value (`--targets` one or
/// more).
const FLAGS: [&str; 7] = [
    "--at",
    "--targets",
    "--slot",
    "--mirrors",
    "--slowest",
    "--client",
    "--user",
];

/// The command line after the subcommand, scanned once for every
/// subcommand: `--targets` takes each argument up to the next flag,
/// every other flag in [`FLAGS`] takes the one argument after it, any
/// other `--flag` is an error, and everything else is a positional (the
/// images first) — so a flag may stand anywhere on the line.
struct Args<'a> {
    positional: Vec<&'a str>,
    /// `(flag, value)` in order; a repeated or multi-valued flag has
    /// one pair per value.
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn scan(args: &'a [String]) -> Result<Self, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str).peekable();
        while let Some(a) = it.next() {
            match a {
                "--targets" => {
                    while let Some(v) = it.next_if(|v| !v.starts_with("--")) {
                        out.flags.push((a, v));
                    }
                }
                // A flag that ends the line gets the empty value, which
                // no parser below accepts.
                _ if FLAGS.contains(&a) => out.flags.push((a, it.next().unwrap_or(""))),
                _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
                _ => out.positional.push(a),
            }
        }
        Ok(out)
    }

    /// Every value given for `flag`, in order.
    fn values(&self, flag: &'a str) -> impl Iterator<Item = &'a str> + '_ {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    /// The first value of `flag` as a number.
    fn number(&self, flag: &'a str) -> Option<usize> {
        self.values(flag).next()?.parse().ok()
    }

    /// Positional `i` (0 is the image), or `missing` as the error.
    fn pos(&self, i: usize, missing: &str) -> Result<&'a str, String> {
        let arg = self.positional.get(i).copied();
        arg.ok_or_else(|| missing.into())
    }

    /// Positional `i` as a time in seconds, or `missing` as the error.
    fn secs(&self, i: usize, missing: &str) -> Result<SimTime, String> {
        let t = self.positional.get(i).copied().and_then(parse_secs);
        t.ok_or_else(|| missing.into())
    }

    /// `--at <secs>`, if given.
    fn at(&self) -> Option<SimTime> {
        self.values("--at").next().and_then(parse_secs)
    }

    /// `--client <id>` / `--user <id>`, each repeatable, as a suspect set.
    fn suspects(&self) -> Result<s4_detect::Suspects, String> {
        let mut suspects = s4_detect::Suspects::default();
        for (flag, set) in [
            ("--client", &mut suspects.clients),
            ("--user", &mut suspects.users),
        ] {
            for v in self.values(flag) {
                let id = v.parse();
                set.insert(id.map_err(|_| format!("{flag} needs a numeric id"))?);
            }
        }
        if suspects.clients.is_empty() && suspects.users.is_empty() {
            return Err("name at least one suspect with --client <id> or --user <id>".into());
        }
        Ok(suspects)
    }
}

/// One audit record as a line of `s4 audit` and of the `s4 stats`
/// flight-recorder tail.
fn record_line(r: &AuditRecord) -> String {
    format!(
        "{:>14} user={:<4} client={:<4} {:<14} {} ok={} \
         rpc={}us journal={}us lfs={}us disk={}us",
        r.time.to_string(),
        r.user.0,
        r.client.0,
        format!("{:?}", r.op),
        r.object,
        r.ok,
        r.rpc_us,
        r.journal_us,
        r.lfs_us,
        r.disk_us
    )
}

/// A point on the image's timeline, as `s4 now` prints it (minus the `s`).
fn parse_secs(s: &str) -> Option<SimTime> {
    let secs: f64 = s.parse().ok()?;
    Some(SimTime::from_micros((secs * 1e6) as u64))
}

/// Mounts `images` as one array: every image a member, `mirrors` of
/// them per shard.
fn open_array(images: &[&str], mirrors: usize) -> Result<S4Array<FileDisk>, String> {
    let devices = images
        .iter()
        .map(|p| FileDisk::open(p).map_err(|e| format!("open {p}: {e}")))
        .collect::<Result<Vec<_>, String>>()?;
    let cfg = ArrayConfig {
        mirrors,
        ..ArrayConfig::default()
    };
    let (array, _reports) = S4Array::mount(devices, DriveConfig::default(), cfg, SimClock::new())
        .map_err(|e| format!("mount array: {e}"))?;
    Ok(array)
}

fn open_fs(image: &str) -> Result<S4FileServer<LoopbackTransport<FileDisk>>, String> {
    let dev = FileDisk::open(image).map_err(|e| format!("open {image}: {e}"))?;
    let clock = SimClock::new();
    let drive = S4Drive::mount(dev, DriveConfig::default(), clock)
        .map_err(|e| format!("mount {image}: {e}"))?;
    // Each CLI invocation is a little session; advance time so versions
    // created by successive invocations are distinguishable.
    drive.clock().advance(SimDuration::from_millis(250));
    let drive = Arc::new(drive);
    S4FileServer::mount(
        LoopbackTransport::new(drive, NetworkModel::free()),
        RequestContext::user(UserId(1), ClientId(1)),
        PARTITION,
        S4FsConfig::default(),
    )
    .map_err(|e| format!("mount fs: {e}"))
}

fn close(fs: S4FileServer<LoopbackTransport<FileDisk>>) -> Result<(), String> {
    let drive = Arc::into_inner(fs.into_transport().into_drive()).expect("sole drive handle");
    drive.unmount().map_err(|e| format!("unmount: {e}"))?;
    Ok(())
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() < 2 {
        return Err("missing arguments".into());
    }
    let cmd = argv[0].as_str();
    let args = Args::scan(&argv[1..])?;
    let image = args.pos(0, &format!("{cmd}: need at least one image"))?;
    let mirrors = args.number("--mirrors").unwrap_or(1);
    match cmd {
        "format" => {
            let mb: u64 = args
                .positional
                .get(1)
                .and_then(|s| s.parse().ok())
                .ok_or("format: need size in MB")?;
            let dev = FileDisk::create(image, mb * 2048)?;
            let clock = SimClock::new();
            clock.advance(SimDuration::from_secs(1));
            let drive = Arc::new(S4Drive::format(dev, DriveConfig::default(), clock)?);
            // Create the exported root directory.
            let fs = S4FileServer::mount(
                LoopbackTransport::new(drive, NetworkModel::free()),
                RequestContext::user(UserId(1), ClientId(1)),
                PARTITION,
                S4FsConfig::default(),
            )?;
            close(fs)?;
            println!("formatted {image}: {mb} MB self-securing image");
        }
        "put" => {
            let path = args.pos(1, "put: need a path")?;
            let mut data = Vec::new();
            std::io::stdin().read_to_end(&mut data)?;
            let fs = open_fs(image)?;
            s4_fs::write_file(&fs, path, &data)?;
            println!("wrote {} bytes to {path} at {}", data.len(), fs.now());
            close(fs)?;
        }
        "cat" => {
            let path = args.pos(1, "cat: need a path")?;
            let fs = open_fs(image)?;
            let data = match args.at() {
                Some(t) => s4_fs::read_file_at(&fs, path, t)?,
                None => {
                    let h = fs.resolve_path(path)?;
                    let size = fs.getattr(h)?.size;
                    fs.read(h, 0, size)?
                }
            };
            use std::io::Write as _;
            std::io::stdout().write_all(&data)?;
            close(fs)?;
        }
        "ls" => {
            let path = args.positional.get(1).copied().unwrap_or("");
            let fs = open_fs(image)?;
            let rows = match args.at() {
                Some(t) => s4_fs::ls_at(&fs, path, t)?,
                None => {
                    let dir = fs.resolve_path(path)?;
                    fs.readdir(dir)?
                        .into_iter()
                        .map(|(n, h, k)| {
                            let size = fs.getattr(h).map(|a| a.size).unwrap_or(0);
                            (n, k, size)
                        })
                        .collect()
                }
            };
            for (name, kind, size) in rows {
                let k = match kind {
                    FileKind::Dir => "d",
                    FileKind::Symlink => "l",
                    FileKind::File => "-",
                };
                println!("{k} {size:>10} {name}");
            }
            close(fs)?;
        }
        "rm" => {
            let path = args.pos(1, "rm: need a path")?;
            let fs = open_fs(image)?;
            let (dir_path, name) = s4_fs::split_path(path);
            let dir = fs.resolve_path(dir_path)?;
            fs.remove(dir, name)?;
            println!("removed {path} (recoverable until the window expires)");
            close(fs)?;
        }
        "mkdir" => {
            let path = args.pos(1, "mkdir: need a path")?;
            let fs = open_fs(image)?;
            let (dir_path, name) = s4_fs::split_path(path);
            let dir = fs.resolve_path(dir_path)?;
            fs.mkdir(dir, name)?;
            close(fs)?;
        }
        "restore" => {
            let path = args.pos(1, "restore: need a path")?;
            let t = args.secs(2, "restore: need a time in seconds")?;
            let fs = open_fs(image)?;
            s4_fs::restore_file(&fs, path, t)?;
            println!("restored {path} to its contents at {t}");
            close(fs)?;
        }
        "pin" => {
            let path = args.pos(1, "pin: need a path")?;
            let t = args.secs(2, "pin: need a time in seconds")?;
            let fs = open_fs(image)?;
            let h = fs.resolve_path_at(path, t)?;
            {
                let drive = fs.transport().drive();
                drive.op_mark_landmark(fs.context(), ObjectId(h), t)?;
            }
            println!("pinned {path} @ {t} as a landmark (survives the detection window)");
            close(fs)?;
        }
        "pins" => {
            let path = args.pos(1, "pins: need a path")?;
            let fs = open_fs(image)?;
            let h = fs.resolve_path(path)?;
            let rows = {
                let drive = fs.transport().drive();
                drive.landmarks(fs.context(), ObjectId(h))?
            };
            for (t, size) in rows {
                println!("{t}  {size} bytes");
            }
            close(fs)?;
        }
        "audit" => {
            let fs = open_fs(image)?;
            let records = {
                let drive = fs.transport().drive();
                let admin = admin_of(drive);
                drive.read_audit_records(&admin)?
            };
            for r in &records {
                println!("{}", record_line(r));
            }
            eprintln!("{} records", records.len());
            close(fs)?;
        }
        "stats" if args.positional.len() > 1 => {
            // Array mode: every image is one shard; metrics aggregate
            // across the member drives and the audit log's tail is the
            // time-merged view.
            let array = open_array(&args.positional, mirrors)?;
            print!("{}", array.metrics_text());
            let admin = admin_of(&array.shard_drive(0));
            let log = array.read_audit_merged(&admin)?;
            eprintln!(
                "flight recorder: {} audit records across {} shards",
                log.len(),
                array.shard_count()
            );
            for e in log.iter().rev().take(10).rev() {
                eprintln!("  shard={} {}", e.shard, record_line(&e.record));
            }
            array.unmount().map_err(|e| format!("unmount array: {e}"))?;
        }
        "reshard" => {
            let target_paths: Vec<&str> = args.values("--targets").collect();
            if target_paths.is_empty() {
                return Err("reshard: need --targets <new-image>...".into());
            }
            let array = open_array(&args.positional, mirrors)?;
            // Targets are created the size of the members they split.
            let sectors = array.shard_drive(0).log().device().num_sectors();
            let targets = target_paths
                .iter()
                .map(|p| FileDisk::create(p, sectors).map_err(|e| format!("create {p}: {e}")))
                .collect::<Result<Vec<_>, String>>()?;
            let cfg = s4_array::ReshardConfig::default();
            let reports = match args.number("--slot") {
                Some(s) => vec![s4_array::split_shard(&array, s, targets, cfg)
                    .map_err(|e| format!("reshard: {e}"))?],
                None => {
                    let base = array.epoch().base;
                    if targets.len() != base * mirrors {
                        return Err(format!(
                            "reshard: doubling {base} shards x {mirrors} mirrors needs {} \
                             target images, got {}",
                            base * mirrors,
                            targets.len()
                        )
                        .into());
                    }
                    let mut groups = Vec::with_capacity(base);
                    let mut it = targets.into_iter();
                    for _ in 0..base {
                        groups.push(it.by_ref().take(mirrors).collect());
                    }
                    s4_array::double_array(&array, groups, cfg)
                        .map_err(|e| format!("reshard: {e}"))?
                }
            };
            for r in &reports {
                println!(
                    "slot {} -> {}: snapshot={} catchup={} (rounds={}) final_delta={} \
                     cleaned={} pause={}us",
                    r.source_slot,
                    r.target_slot,
                    r.snapshot_objects,
                    r.catchup_objects,
                    r.catchup_rounds,
                    r.final_delta_objects,
                    r.cleaned_objects,
                    r.flip.pause.as_micros()
                );
            }
            println!("{}", array.reshard_status_text());
            array.unmount().map_err(|e| format!("unmount array: {e}"))?;
        }
        "txn" => {
            let array = open_array(&args.positional, mirrors)?;
            println!("{}", array.txn_status_text());
            array.unmount().map_err(|e| format!("unmount array: {e}"))?;
        }
        "trace" => {
            // The last positional is the trace id when it parses as hex
            // and is not an image on disk; everything before it is a
            // shard image.
            let mut images = args.positional.clone();
            let wanted = images
                .last()
                .filter(|last| !std::path::Path::new(last).exists())
                .and_then(|last| u64::from_str_radix(last.trim_start_matches("0x"), 16).ok());
            if wanted.is_some() {
                images.pop();
            }
            if images.is_empty() {
                return Err("trace: need at least one image".into());
            }
            let array = open_array(&images, mirrors)?;
            let admin = admin_of(&array.shard_drive(0));
            let trees = array
                .assemble_all_traces(&admin)
                .map_err(|e| format!("trace: {e}"))?;
            match (wanted, args.number("--slowest")) {
                (Some(id), _) => match trees.iter().find(|t| t.trace_id == id) {
                    Some(t) => print!("{}", s4_detect::render_trace_tree(t)),
                    None => return Err(format!("trace: no spans recorded for id {id:#x}").into()),
                },
                (None, Some(k)) => {
                    for t in s4_detect::slowest_traces(&trees, k) {
                        print!("{}", s4_detect::render_trace_tree(t));
                    }
                }
                (None, None) => {
                    for t in &trees {
                        println!(
                            "{:#018x} origin shard {}: {} shard(s), {} member stream(s), \
                             {} span(s), max rpc {}us",
                            t.trace_id,
                            t.origin,
                            t.shards().len(),
                            t.members().len(),
                            t.spans.len(),
                            t.max_rpc_us()
                        );
                    }
                    eprintln!(
                        "{} traces assembled from {} shards",
                        trees.len(),
                        array.shard_count()
                    );
                }
            }
            array.unmount().map_err(|e| format!("unmount array: {e}"))?;
        }
        "stats" => {
            let fs = open_fs(image)?;
            {
                // Prometheus-style exposition on stdout; the audit log's
                // tail as human context on stderr.
                let drive = fs.transport().drive();
                print!("{}", drive.metrics_text());
                let log = drive.read_audit_records(&admin_of(drive))?;
                eprintln!("flight recorder: {} audit records", log.len());
                for r in log.iter().rev().take(10).rev() {
                    eprintln!("  {}", record_line(r));
                }
            }
            close(fs)?;
        }
        "detect" => {
            let fs = open_fs(image)?;
            {
                let drive = fs.transport().drive();
                let admin = admin_of(drive);
                let cov = s4_detect::audit_coverage(drive, &admin)?;
                let stored = s4_detect::read_alerts(drive, &admin)?;
                let alerts = s4_detect::scan_audit(drive, &admin)?;
                for a in &alerts {
                    println!("{a}");
                }
                eprintln!(
                    "{} alerts from {} audit records ({} persisted by the online monitor, \
                     {} records lost with the volatile tail)",
                    alerts.len(),
                    cov.decodable,
                    stored.len(),
                    cov.missing()
                );
            }
            close(fs)?;
        }
        "plan" | "revert" => {
            let t = args.secs(1, "plan/revert: need the intrusion time in seconds")?;
            let suspects = args.suspects()?;
            let fs = open_fs(image)?;
            {
                let drive = fs.transport().drive();
                let admin = admin_of(drive);
                let plan = s4_detect::plan_recovery(drive, &admin, &suspects, t)?;
                if plan.actions.is_empty() {
                    println!("nothing to recover: no suspect mutations after {t}");
                }
                for (i, pa) in plan.actions.iter().enumerate() {
                    println!("{i:>3}: {}", pa.action);
                    println!("     {}", pa.reason);
                }
                if cmd == "revert" {
                    let report = s4_detect::execute_plan_on(drive, &admin, &plan)?;
                    for (old, new) in &report.undeleted {
                        println!("undeleted {old} as {new}");
                    }
                    for (i, e) in &report.failed {
                        eprintln!("action {i} failed: {e}");
                    }
                    println!(
                        "applied {} / {} actions",
                        report.applied,
                        plan.actions.len()
                    );
                }
            }
            close(fs)?;
        }
        "now" => {
            let fs = open_fs(image)?;
            println!("{}", fs.now());
            close(fs)?;
        }
        _ => return Err(format!("unknown command {cmd}").into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError(e)) => {
            if e == "missing arguments" {
                return usage();
            }
            eprintln!("s4: {e}");
            ExitCode::FAILURE
        }
    }
}
