//! The protocol client: a closed loop over one connection that writes
//! request lines, reads reply lines and times each request from its
//! first line written to its last reply read.

use crate::check::{Checker, Facts};
use crate::pipe::{PipeReader, PipeWriter};
use crate::trace::Recorder;
use crate::workload::Exchange;
use gcol_serve::json::{self, Json};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::time::Instant;

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in issue order (0 = first request of the run phase).
    pub index: usize,
    /// The request id.
    pub id: u64,
    /// The request's kind in its workload's cycle.
    pub kind: usize,
    /// First request line handed to the connection.
    pub start: Instant,
    /// Last reply line read.
    pub end: Instant,
    /// Time the client itself spent building lines and checking replies.
    pub client_ns: u64,
    /// What the replies showed.
    pub facts: Facts,
}

impl Sample {
    /// Client-observed latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The client end of one connection.
pub struct Conn {
    tx: PipeWriter,
    rx: PipeReader,
}

struct InFlight {
    ex: Exchange,
    part: usize,
    index: usize,
    start: Instant,
    client_ns: u64,
    facts: Facts,
}

/// The `id` of a reply line. Keys are quoted and string contents escape
/// their quotes, so `"id":` occurs only as the key.
fn reply_id(line: &str) -> Option<u64> {
    let at = line.find("\"id\":")? + 5;
    let digits = line[at..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(&line[at..], |e| &line[at..at + e]);
    digits.parse().ok()
}

fn since_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Conn {
    /// A client over the given pipe ends.
    pub fn new(tx: PipeWriter, rx: PipeReader) -> Self {
        Self { tx, rx }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let io = |e: std::io::Error| format!("connection closed while sending: {e}");
        self.tx.write_all(line.as_bytes()).map_err(io)?;
        self.tx.write_all(b"\n").map_err(io)?;
        self.tx.flush().map_err(io)
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.rx.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                line.truncate(line.trim_end().len());
                Ok(line)
            }
            Err(e) => Err(format!("reading a reply: {e}")),
        }
    }

    /// Asks for the service counters: (accepted, cache hits).
    pub fn stats(&mut self, id: u64) -> Result<(f64, f64), String> {
        self.send(&format!("{{\"op\":\"stats\",\"id\":{id}}}"))?;
        let line = self.recv()?;
        let v = json::parse(&line).map_err(|e| format!("bad stats reply: {e}"))?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("stats without {k}"))
        };
        Ok((num("accepted")?, num("cache_hits")?))
    }

    /// Runs requests from `next` until it returns `None`, keeping up to
    /// `depth` in flight, and returns one sample per request plus the
    /// process's peak RSS (MB) read when the `mark`-th request completed
    /// (0 if it never did). With a recorder, each request also gets a
    /// root span and `bench.client` spans for the client's own work.
    pub fn drive(
        &mut self,
        checker: &mut Checker<'_>,
        rec: Option<&Recorder>,
        depth: usize,
        mark: usize,
        next: &mut dyn FnMut(usize) -> Option<Exchange>,
    ) -> Result<(Vec<Sample>, f64), String> {
        let mut rss_mb = 0.0;
        let mut inflight: HashMap<u64, InFlight> = HashMap::new();
        let mut samples = Vec::new();
        let mut issued = 0;
        let mut exhausted = false;
        loop {
            while !exhausted && inflight.len() < depth {
                let t0 = Instant::now();
                let Some(ex) = next(issued) else {
                    exhausted = true;
                    break;
                };
                let id = ex.id;
                let start = Instant::now();
                if let Some(rec) = rec {
                    rec.span("bench.client", id, id, t0, start);
                }
                self.send(&ex.parts[0].0)?;
                inflight.insert(
                    id,
                    InFlight {
                        ex,
                        part: 0,
                        index: issued,
                        start,
                        client_ns: (start - t0).as_nanos() as u64,
                        facts: Facts {
                            ok: true,
                            ..Facts::default()
                        },
                    },
                );
                issued += 1;
            }
            if inflight.is_empty() {
                return Ok((samples, rss_mb));
            }
            let line = self.recv()?;
            let end = Instant::now();
            let id = reply_id(&line).ok_or_else(|| format!("reply without id: {line:.200}"))?;
            let f = inflight
                .get_mut(&id)
                .ok_or_else(|| format!("reply for unknown request {id}"))?;
            let facts = checker.check(&f.ex.parts[f.part].1, &line)?;
            f.facts.ok &= facts.ok;
            f.facts.colors = facts.colors.or(f.facts.colors);
            f.facts.modeled_ms = facts.modeled_ms.or(f.facts.modeled_ms);
            f.client_ns += since_ns(end);
            if let Some(rec) = rec {
                rec.span("bench.client", id, id, end, Instant::now());
            }
            f.part += 1;
            if facts.ok && f.part < f.ex.parts.len() {
                let line = f.ex.parts[f.part].0.clone();
                self.send(&line)?;
                continue;
            }
            let f = inflight.remove(&id).expect("present: looked up above");
            if let Some(rec) = rec {
                rec.root(id, f.start, end);
            }
            samples.push(Sample {
                index: f.index,
                id,
                kind: f.ex.kind,
                start: f.start,
                end,
                client_ns: f.client_ns,
                facts: f.facts,
            });
            if samples.len() == mark {
                rss_mb = crate::peak_rss_mb();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reply_id;

    #[test]
    fn reply_id_reads_the_key_only() {
        assert_eq!(
            reply_id(r#"{"detail":"x \"id\":9","id":42,"ok":false}"#),
            Some(42)
        );
        assert_eq!(reply_id(r#"{"ok":true}"#), None);
    }
}
