//! An in-memory, line-oriented pipe: one end implements `Write`, the
//! other `BufRead`. It connects the client loop to the server on the
//! same process without a socket, so the benchmark measures the server
//! and not the kernel's networking stack.

use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Creates a connected (writer, reader) pair.
pub fn pipe() -> (PipeWriter, PipeReader) {
    let (tx, rx) = channel();
    (
        PipeWriter {
            tx,
            buf: Vec::new(),
        },
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        },
    )
}

/// The sending end. Bytes are buffered until `flush`, so one flushed
/// line crosses the pipe as one message.
pub struct PipeWriter {
    tx: Sender<Vec<u8>>,
    buf: Vec<u8>,
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.tx
            .send(std::mem::take(&mut self.buf))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "pipe reader dropped"))
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        // Errors here mean the reader is gone; nothing is left to deliver to.
        let _ = self.flush();
    }
}

/// The receiving end. Reads return EOF once every writer is dropped and
/// the buffered bytes are consumed.
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_cross_in_order_and_eof_follows_drop() {
        let (mut w, r) = pipe();
        w.write_all(b"one\ntw").unwrap();
        w.flush().unwrap();
        w.write_all(b"o\n").unwrap();
        drop(w);
        let lines: Vec<String> = r.lines().map(Result::unwrap).collect();
        assert_eq!(lines, ["one", "two"]);
    }
}
