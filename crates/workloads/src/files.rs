//! A small file-level workload builder (the Fig. 1 / Fig. 8 semantics).
//!
//! The paper's dedup examples are phrased in files: files are sequences of
//! content chunks (Fig. 1: File 1 = A B C D …), deletion of a file
//! decrements the reference counts of its chunks, and a chunk's page is
//! invalidated only when the last file sharing it is gone. This builder
//! scripts exactly such scenarios as traces — the quickstart example uses
//! it to replay Fig. 8's "write four files, delete two" comparison.

use crate::trace::{Request, Trace};
use cagc_dedup::ContentId;
use cagc_sim::time::Nanos;
use std::collections::HashMap;

/// Handle for a written file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(u64);

/// Scripted file create/delete workload.
#[derive(Debug)]
pub struct FileWorkloadBuilder {
    name: String,
    logical_pages: u64,
    gap_ns: Nanos,
    now: Nanos,
    next_lpn: u64,
    next_file: u64,
    files: HashMap<FileId, (u64, u32)>, // (start lpn, pages)
    requests: Vec<Request>,
}

impl FileWorkloadBuilder {
    /// A builder over `logical_pages` of space; consecutive operations are
    /// spaced `gap_ns` apart.
    pub fn new(name: impl Into<String>, logical_pages: u64, gap_ns: Nanos) -> Self {
        Self {
            name: name.into(),
            logical_pages,
            gap_ns,
            now: 0,
            next_lpn: 0,
            next_file: 0,
            files: HashMap::new(),
            requests: Vec::new(),
        }
    }

    /// Write a file composed of the given content chunks (one page each) at
    /// the next sequential extent.
    ///
    /// # Panics
    /// Panics when the logical space is exhausted (scripted scenarios
    /// should fit their device) or the file is empty.
    pub fn write_file(&mut self, chunks: &[ContentId]) -> FileId {
        assert!(!chunks.is_empty(), "empty file");
        assert!(
            self.next_lpn + chunks.len() as u64 <= self.logical_pages,
            "file workload overflows logical space {}",
            self.logical_pages
        );
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.requests.push(Request::write(self.now, self.next_lpn, chunks.to_vec()));
        self.files.insert(id, (self.next_lpn, chunks.len() as u32));
        self.next_lpn += chunks.len() as u64;
        self.now += self.gap_ns;
        id
    }

    /// Delete a file: trims its extent.
    ///
    /// # Panics
    /// Panics if the file is unknown (double delete).
    pub fn delete_file(&mut self, file: FileId) {
        let (start, pages) = self.files.remove(&file).expect("unknown or deleted file");
        self.requests.push(Request::trim(self.now, start, pages));
        self.now += self.gap_ns;
    }

    /// Finish the script.
    pub fn build(self) -> Trace {
        Trace::new(self.name, self.logical_pages, self.requests)
    }

    /// The Fig. 8 scenario: four files sharing chunks (File1=ABCD,
    /// File2=EBF, File3=DAB, File4=BG), then delete files 2 and 4.
    pub fn fig8_scenario(logical_pages: u64) -> Trace {
        let [a, b, c, d, e, f, g] =
            [1u64, 2, 3, 4, 5, 6, 7].map(ContentId);
        let mut w = Self::new("fig8", logical_pages, 1_000_000);
        let _f1 = w.write_file(&[a, b, c, d]);
        let f2 = w.write_file(&[e, b, f]);
        let _f3 = w.write_file(&[d, a, b]);
        let f4 = w.write_file(&[b, g]);
        w.delete_file(f2);
        w.delete_file(f4);
        w.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::OpKind;

    #[test]
    fn files_occupy_sequential_extents() {
        let mut w = FileWorkloadBuilder::new("t", 100, 10);
        w.write_file(&[ContentId(1), ContentId(2)]);
        w.write_file(&[ContentId(3)]);
        let t = w.build();
        assert_eq!(t.requests[0].lpn, 0);
        assert_eq!(t.requests[1].lpn, 2);
        t.validate().unwrap();
    }

    #[test]
    fn delete_trims_the_extent() {
        let mut w = FileWorkloadBuilder::new("t", 100, 10);
        let f = w.write_file(&[ContentId(1), ContentId(2), ContentId(3)]);
        w.delete_file(f);
        let t = w.build();
        assert_eq!(t.requests[1].kind, OpKind::Trim);
        assert_eq!(t.requests[1].lpn, 0);
        assert_eq!(t.requests[1].pages, 3);
    }

    #[test]
    #[should_panic(expected = "unknown or deleted")]
    fn double_delete_panics() {
        let mut w = FileWorkloadBuilder::new("t", 100, 10);
        let f = w.write_file(&[ContentId(1)]);
        w.delete_file(f);
        w.delete_file(f);
    }

    #[test]
    fn fig8_has_12_chunk_writes_and_two_deletes() {
        let t = FileWorkloadBuilder::fig8_scenario(64);
        let written: u64 = t.written_pages();
        assert_eq!(written, 12); // 4+3+3+2 chunks
        let trims = t.requests.iter().filter(|r| r.kind == OpKind::Trim).count();
        assert_eq!(trims, 2);
        // Content B appears 4 times across files, matching Fig. 1.
        let b_count = t
            .requests
            .iter()
            .flat_map(|r| r.contents.iter())
            .filter(|c| c.0 == 2)
            .count();
        assert_eq!(b_count, 4);
    }

    #[test]
    #[should_panic(expected = "overflows logical space")]
    fn space_overflow_panics() {
        let mut w = FileWorkloadBuilder::new("t", 2, 10);
        w.write_file(&[ContentId(1), ContentId(2), ContentId(3)]);
    }
}
