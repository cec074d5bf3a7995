//! The JSONL file mechanics every checkpoint journal in the workspace
//! shares: one header line, then one compact JSON record per line, each
//! appended and flushed so it survives a kill immediately after.
//!
//! Reading applies one rule: a *final* line that does not parse as JSON is
//! a torn append — the signature of a process killed mid-write — and is
//! dropped; any other malformed line is an error. Silently skipping an
//! interior record would break a bit-identical resume. Record schemas and
//! their validation belong to the callers ([`crate::checkpoint`] and the
//! `dpm-serve` fleet journal); a final line that parses but fails the
//! caller's validation is a hard error there, not a torn append.

use std::fs::File;
use std::io::{self, Write as _};
use std::iter::{Enumerate, Peekable};
use std::path::Path;
use std::str::Lines;

use crate::json::Json;

/// An open JSONL journal being appended to.
#[derive(Debug)]
pub struct JsonlWriter {
    file: File,
}

impl JsonlWriter {
    /// Creates (truncating) the journal at `path`, making its parent
    /// directory if needed, and writes and flushes the `header` line.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(path: &Path, header: &Json) -> io::Result<JsonlWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut writer = JsonlWriter {
            file: File::create(path)?,
        };
        writer.append(header)?;
        Ok(writer)
    }

    /// Appends one record line and flushes it.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn append(&mut self, record: &Json) -> io::Result<()> {
        writeln!(self.file, "{}", record.render_compact())?;
        self.file.flush()
    }
}

/// Splits journal text into its header and a lazy iterator over the
/// records after it. Blank lines are skipped. Records parse one at a
/// time, so a long journal never holds more than one parsed record.
///
/// # Errors
///
/// Returns a description of the problem if the text has no header line or
/// the header does not parse.
pub fn parse(text: &str) -> Result<(Json, Records<'_>), String> {
    let mut records = Records {
        lines: text.lines().enumerate().peekable(),
    };
    let Some((_, header)) = records.next_line() else {
        return Err("journal is empty (no header line)".to_owned());
    };
    let header = Json::parse(header).map_err(|e| format!("malformed header line: {e}"))?;
    Ok((header, records))
}

/// The record lines of a journal, parsed on demand; see [`parse`].
///
/// Yields each record with its 1-based line number in the file, drops a
/// final line that does not parse, and yields an error for any other line
/// that does not parse (callers stop at the first error).
#[derive(Debug)]
pub struct Records<'a> {
    lines: Peekable<Enumerate<Lines<'a>>>,
}

impl<'a> Records<'a> {
    /// The next non-blank line, with its 0-based index.
    fn next_line(&mut self) -> Option<(usize, &'a str)> {
        self.lines.find(|(_, line)| !line.trim().is_empty())
    }

    /// Whether only blank lines remain.
    fn at_end(&mut self) -> bool {
        while self
            .lines
            .next_if(|(_, line)| line.trim().is_empty())
            .is_some()
        {}
        self.lines.peek().is_none()
    }
}

impl Iterator for Records<'_> {
    type Item = Result<(usize, Json), String>;

    fn next(&mut self) -> Option<Self::Item> {
        let (index, line) = self.next_line()?;
        match Json::parse(line) {
            Ok(record) => Some(Ok((index + 1, record))),
            // A torn append: the final write never completed.
            Err(_) if self.at_end() => None,
            Err(e) => Some(Err(format!("line {}: {e}", index + 1))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(k: u64) -> Json {
        let mut doc = Json::object();
        doc.set("k", k);
        doc
    }

    #[test]
    fn written_lines_read_back_with_line_numbers() {
        let dir = std::env::temp_dir().join("dpm-harness-jsonl-tests");
        let path = dir.join(format!("nested/round-trip-{}.jsonl", std::process::id()));
        let mut writer = JsonlWriter::create(&path, &record(0)).unwrap();
        writer.append(&record(1)).unwrap();
        writer.append(&record(2)).unwrap();
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, records) = parse(&text).unwrap();
        assert_eq!(header, record(0));
        let records: Result<Vec<_>, _> = records.collect();
        assert_eq!(records.unwrap(), vec![(2, record(1)), (3, record(2))]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn only_a_torn_final_line_is_dropped() {
        let records = |text| -> Result<Vec<(usize, Json)>, String> { parse(text)?.1.collect() };
        assert_eq!(
            records("{\"k\":0}\n{\"k\":1}\n\n{\"k\":2,\"to\n\n").unwrap(),
            vec![(2, record(1))]
        );
        let err = records("{\"k\":0}\n{\"k\"\n\n{\"k\":2}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(records("\n \n").unwrap_err().contains("empty"));
        assert!(records("{\"k\":0").unwrap_err().contains("header"));
    }
}
