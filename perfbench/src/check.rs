//! Reply checking. Every reply is parsed; every coloring it carries is
//! verified proper against the harness's own copy of the graph, and its
//! `colors` field must equal the number of distinct colors assigned.
//!
//! Verification runs after the timed window, so the closed loop measures
//! the server and not the checker. During the window a reply costs one
//! hash of its assignment text: a coloring already kept for the same
//! graph (a cache hit repeating a result) is not stored again. The
//! checker keeps a graph's name and the reply line, never the graph, so
//! it holds no graph alive that the server has let go; after the window
//! each named graph is rebuilt once from its name.

use crate::resolve::{self, GraphKey, Resolver};
use gcol_graph::check::{count_colors, verify_coloring};
use gcol_graph::edit::EdgeEdit;
use gcol_graph::{Color, Csr};
use gcol_serve::json::{self, Json};
use std::collections::HashSet;
use std::sync::Arc;

/// What a reply must show.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A coloring of the named graph, produced the stated way (`cold`,
    /// `cache-hit`).
    Color {
        /// The graph the request named.
        graph: GraphKey,
        /// The reply's required `source`.
        source: &'static str,
    },
    /// A `load` that installed exactly this graph as the session graph.
    Load {
        /// The graph the uploaded text encodes.
        graph: Arc<Csr>,
    },
    /// A `mutate` applying these edits to the session graph.
    Mutate {
        /// The edit batch sent.
        edits: Arc<Vec<EdgeEdit>>,
    },
    /// A `recolor` of the session graph produced the stated way
    /// (`scratch`, `delta`).
    Recolor {
        /// The reply's required `source`.
        source: &'static str,
    },
}

/// What the metrics need from one successful or failed reply.
#[derive(Debug, Clone, Copy, Default)]
pub struct Facts {
    /// `"ok":true`.
    pub ok: bool,
    /// The reply's `colors`, for coloring replies.
    pub colors: Option<f64>,
    /// The reply's `modeled_ms`, for coloring replies.
    pub modeled_ms: Option<f64>,
}

/// A reply split into its small JSON part and its raw assignment text.
pub struct Reply<'a> {
    /// Every field except `assignment`.
    pub json: Json,
    /// The text between the assignment's brackets, when present.
    pub assignment: Option<&'a str>,
}

impl Reply<'_> {
    fn num(&self, key: &str) -> Option<f64> {
        self.json.get(key).and_then(Json::as_f64)
    }

    fn str(&self, key: &str) -> Option<&str> {
        self.json.get(key).and_then(Json::as_str)
    }

    /// Whether the reply reports success.
    pub fn ok(&self) -> bool {
        self.json.get("ok").and_then(Json::as_bool) == Some(true)
    }
}

/// Splits the assignment array out of a reply line and parses the rest.
pub fn parse_reply(line: &str) -> Result<Reply<'_>, String> {
    const KEY: &str = "\"assignment\":[";
    let Some(at) = line.find(KEY) else {
        let json = json::parse(line).map_err(|e| format!("bad reply {line:?}: {e}"))?;
        return Ok(Reply {
            json,
            assignment: None,
        });
    };
    let body = at + KEY.len();
    let close = body
        + line[body..]
            .find(']')
            .ok_or("reply has an unterminated assignment")?;
    let (head, tail) = (&line[..at], &line[close + 1..]);
    let rest = match tail.strip_prefix(',') {
        Some(tail) => format!("{head}{tail}"),
        None => format!("{}{tail}", head.trim_end_matches(',')),
    };
    let json = json::parse(&rest).map_err(|e| format!("bad reply {rest:?}: {e}"))?;
    Ok(Reply {
        json,
        assignment: Some(&line[body..close]),
    })
}

/// Parses assignment text (`1,2,1,…`).
pub fn parse_colors(text: &str) -> Result<Vec<Color>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|t| {
            t.parse::<Color>()
                .map_err(|e| format!("bad color {t:?}: {e}"))
        })
        .collect()
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn graph_fingerprint_hex(g: &Csr) -> String {
    format!("{:016x}", g.content_fingerprint())
}

/// Gives vertex `v` the color of one of its neighbours, for the check
/// that an improper coloring fails the run.
fn recolor_to_neighbour(g: &Csr, colors: &mut [Color]) {
    if let Some(v) = g.vertices().find(|&v| g.degree(v) > 0) {
        colors[v as usize] = colors[g.neighbors(v)[0] as usize];
    }
}

/// Verifies one coloring reply against `g`.
fn verify_line(g: &Csr, line: &str, corrupt: &mut bool) -> Result<(), String> {
    let reply = parse_reply(line)?;
    let text = reply
        .assignment
        .ok_or("coloring reply without an assignment")?;
    let mut colors = parse_colors(text)?;
    if std::mem::take(corrupt) {
        recolor_to_neighbour(g, &mut colors);
    }
    verify_coloring(g, &colors).map_err(|e| format!("improper coloring: {e}"))?;
    let claimed = reply.num("colors").ok_or("coloring reply without colors")?;
    let distinct = count_colors(&colors);
    if claimed != distinct as f64 {
        return Err(format!(
            "reply claims {claimed} colors, assignment uses {distinct}: {}",
            reply.json
        ));
    }
    Ok(())
}

/// The session a `load` started: the uploaded graph and its fingerprint,
/// every edit batch the server accepted since, and the recolor replies
/// to verify.
struct SessionLog {
    base: Arc<Csr>,
    load_fp: String,
    batches: Vec<Arc<Vec<EdgeEdit>>>,
    mutate_fps: Vec<String>,
    recolors: Vec<(usize, String)>,
}

/// Checks the replies of one connection.
pub struct Checker<'r> {
    resolver: &'r Resolver,
    seen: HashSet<(GraphKey, u64, u64)>,
    pending: Vec<(GraphKey, String)>,
    session: Option<SessionLog>,
    verified: usize,
}

impl<'r> Checker<'r> {
    /// A checker resolving graph names through `resolver`.
    pub fn new(resolver: &'r Resolver) -> Self {
        Self {
            resolver,
            seen: HashSet::new(),
            pending: Vec::new(),
            session: None,
            verified: 0,
        }
    }

    /// Checks what can be checked cheaply now and keeps what the
    /// post-window verification needs.
    pub fn check(&mut self, expect: &Expect, line: &str) -> Result<Facts, String> {
        let reply = parse_reply(line)?;
        if !reply.ok() {
            return Ok(Facts::default());
        }
        let facts = Facts {
            ok: true,
            colors: reply.num("colors"),
            modeled_ms: reply.num("modeled_ms"),
        };
        let source = reply.str("source");
        match expect {
            Expect::Color {
                graph,
                source: want,
            } => {
                if source != Some(*want) {
                    return Err(format!("expected a {want} reply, got {line:.200}"));
                }
                if !self.resolver.built(graph) {
                    return Err(format!("server colored {graph:?} without building it"));
                }
                let text = reply
                    .assignment
                    .ok_or("coloring reply without an assignment")?;
                let colors = facts.colors.ok_or("coloring reply without colors")?;
                let key = (graph.clone(), fnv(text.as_bytes()), colors as u64);
                if self.seen.insert(key) {
                    self.pending.push((graph.clone(), line.to_string()));
                }
            }
            Expect::Load { graph } => {
                let fp = graph_fingerprint_hex(graph);
                if reply.str("graph_fingerprint") != Some(&fp)
                    || reply.num("vertices") != Some(graph.num_vertices() as f64)
                    || reply.num("edges") != Some(graph.num_edges() as f64)
                {
                    return Err(format!("load installed another graph: {line:.200}"));
                }
                self.session = Some(SessionLog {
                    base: Arc::clone(graph),
                    load_fp: fp,
                    batches: Vec::new(),
                    mutate_fps: Vec::new(),
                    recolors: Vec::new(),
                });
            }
            Expect::Mutate { edits } => {
                let s = self.session.as_mut().ok_or("mutate before load")?;
                let fp = reply
                    .str("graph_fingerprint")
                    .ok_or("mutate without fingerprint")?;
                let before = s.mutate_fps.last().unwrap_or(&s.load_fp);
                if before == fp || reply.num("touched").unwrap_or(0.0) < 1.0 {
                    return Err(format!(
                        "mutate left the graph fingerprint unchanged: {line}"
                    ));
                }
                s.batches.push(Arc::clone(edits));
                s.mutate_fps.push(fp.to_string());
            }
            Expect::Recolor { source: want } => {
                if source != Some(*want) {
                    return Err(format!("expected a {want} recolor, got {line:.200}"));
                }
                let s = self.session.as_mut().ok_or("recolor before load")?;
                s.recolors.push((s.batches.len(), line.to_string()));
            }
        }
        Ok(facts)
    }

    /// Verifies every kept coloring; returns how many were verified.
    /// With `corrupt`, the first one is tampered with first (one vertex
    /// takes a neighbour's color), which must fail.
    pub fn verify(&mut self, mut corrupt: bool) -> Result<usize, String> {
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_by(|a, b| a.0.cmp(&b.0));
        let mut current: Option<(GraphKey, Csr)> = None;
        for (key, line) in pending {
            if current.as_ref().map(|(k, _)| k) != Some(&key) {
                // Free the previous graph before building the next.
                drop(current.take());
                let (name, scale, seed) = &key;
                let g = resolve::build(name, *scale, *seed)?;
                current = Some((key, g));
            }
            let (_, g) = current.as_ref().expect("graph rebuilt above");
            verify_line(g, &line, &mut corrupt)?;
            self.verified += 1;
        }
        if let Some(s) = self.session.take() {
            let mut g = Arc::clone(&s.base);
            let mut applied = 0;
            for (round, line) in &s.recolors {
                while applied < *round {
                    let (next, _) = g
                        .with_edits(&s.batches[applied])
                        .map_err(|e| format!("harness edit replay failed: {e}"))?;
                    if graph_fingerprint_hex(&next) != s.mutate_fps[applied] {
                        return Err(format!("mutate {applied} installed another graph"));
                    }
                    g = Arc::new(next);
                    applied += 1;
                }
                verify_line(&g, line, &mut corrupt)?;
                self.verified += 1;
            }
        }
        Ok(self.verified)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_split_from_the_rest() {
        let line = r#"{"assignment":[1,2,1],"colors":2,"id":7,"ok":true}"#;
        let r = parse_reply(line).unwrap();
        assert_eq!(r.assignment, Some("1,2,1"));
        assert_eq!(r.num("id"), Some(7.0));
        assert!(r.ok());
        assert_eq!(parse_colors(r.assignment.unwrap()).unwrap(), [1, 2, 1]);
    }

    /// A reply line carrying a sequential coloring of `g`.
    fn colored_line(g: &Csr, source: &str) -> String {
        let c = gcol_core::Scheme::Sequential
            .try_color(g, &gcol_simt::Device::k20c(), &Default::default())
            .unwrap();
        let text: Vec<String> = c.colors.iter().map(|x| x.to_string()).collect();
        format!(
            r#"{{"assignment":[{}],"colors":{},"ok":true,"source":"{source}"}}"#,
            text.join(","),
            c.num_colors
        )
    }

    #[test]
    fn a_neighbour_color_fails_verification() {
        let g = gcol_graph::gen::rmat(gcol_graph::gen::RmatParams::erdos_renyi(8, 8), 3);
        let line = colored_line(&g, "cold");
        assert!(verify_line(&g, &line, &mut false).is_ok());
        let err = verify_line(&g, &line, &mut true).unwrap_err();
        assert!(err.contains("improper"), "{err}");
    }

    /// Peak RSS shows what the server retains only if the harness keeps
    /// no graph alive: once the server drops a graph it is freed, and
    /// verification still runs against a rebuild from its name.
    #[test]
    fn the_checker_frees_every_graph_the_server_frees() {
        let resolver = Resolver::default();
        let mut checker = Checker::new(&resolver);
        let mut freed = Vec::new();
        for seed in 1..=3 {
            let g = resolver.resolve("rmat-er", 10, seed).unwrap();
            let key: GraphKey = ("rmat-er".into(), 10, seed);
            let line = colored_line(&g, "cold");
            let expect = Expect::Color {
                graph: key,
                source: "cold",
            };
            checker.check(&expect, &line).unwrap();
            checker.check(&expect, &line).unwrap();
            freed.push(Arc::downgrade(&g));
            drop(g);
        }
        assert!(freed.iter().all(|w| w.upgrade().is_none()));
        assert_eq!(checker.verify(false), Ok(3));
    }

    #[test]
    fn a_first_mutate_must_change_the_loaded_fingerprint() {
        let g = Arc::new(gcol_graph::gen::rmat(
            gcol_graph::gen::RmatParams::erdos_renyi(8, 8),
            3,
        ));
        let fp = graph_fingerprint_hex(&g);
        let load = format!(
            r#"{{"edges":{},"graph_fingerprint":"{fp}","ok":true,"vertices":{}}}"#,
            g.num_edges(),
            g.num_vertices()
        );
        let resolver = Resolver::default();
        let mut checker = Checker::new(&resolver);
        checker.check(&Expect::Load { graph: g }, &load).unwrap();
        let mutate = Expect::Mutate {
            edits: Arc::new(Vec::new()),
        };
        let same = format!(r#"{{"graph_fingerprint":"{fp}","ok":true,"touched":2}}"#);
        let err = checker.check(&mutate, &same).unwrap_err();
        assert!(err.contains("unchanged"), "{err}");
    }
}
