//! Labelled packet datasets: accumulation, statistics, splits and CSV.
//!
//! The paper's training run produces "3,012,885 malicious packets and
//! 2,243,634 benign packets" over 10 minutes — a nearly balanced labelled
//! dataset assembled exactly like [`Dataset`] assembles sniffer records.

use std::io::{self, BufRead, Write};

use netsim::packet::{Protocol, TcpFlags};
use netsim::time::SimTime;
use netsim::{Addr, SimRng};
use serde::{Deserialize, Serialize};

use crate::record::{Label, PacketRecord};

/// Class composition of a dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Benign packets.
    pub benign: u64,
    /// Malicious packets.
    pub malicious: u64,
}

impl ClassCounts {
    /// Total packets.
    pub fn total(&self) -> u64 {
        self.benign + self.malicious
    }

    /// Fraction of packets that are malicious, in `[0, 1]`.
    pub fn malicious_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.malicious as f64 / self.total() as f64
        }
    }

    /// Class-balance ratio `min/max` in `[0, 1]`; 1 is perfectly balanced.
    pub fn balance(&self) -> f64 {
        let (lo, hi) = (self.benign.min(self.malicious), self.benign.max(self.malicious));
        if hi == 0 {
            1.0
        } else {
            lo as f64 / hi as f64
        }
    }
}

/// A labelled capture, ordered by timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    records: Vec<PacketRecord>,
}

impl Dataset {
    /// An empty dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dataset from records (sorted by time if needed).
    pub fn from_records(mut records: Vec<PacketRecord>) -> Self {
        if !records.windows(2).all(|w| w[0].ts <= w[1].ts) {
            records.sort_by_key(|r| r.ts);
        }
        Dataset { records }
    }

    /// The records, in time order.
    pub fn records(&self) -> &[PacketRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Class composition.
    pub fn class_counts(&self) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for r in &self.records {
            match r.label {
                Label::Benign => counts.benign += 1,
                Label::Malicious => counts.malicious += 1,
            }
        }
        counts
    }

    /// Splits chronologically: the first `fraction` of *time* (not
    /// packets) becomes the training set — matching the paper's separate
    /// 10-minute training and 5-minute detection runs.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn split_by_time(&self, fraction: f64) -> (Dataset, Dataset) {
        assert!(fraction > 0.0 && fraction < 1.0, "fraction must be in (0, 1)");
        if self.records.is_empty() {
            return (Dataset::new(), Dataset::new());
        }
        let start = self.records.first().expect("non-empty").ts.as_nanos();
        let end = self.records.last().expect("non-empty").ts.as_nanos();
        let cut = start + ((end - start) as f64 * fraction) as u64;
        let idx = self.records.partition_point(|r| r.ts.as_nanos() <= cut);
        (
            Dataset { records: self.records[..idx].to_vec() },
            Dataset { records: self.records[idx..].to_vec() },
        )
    }

    /// Shuffled random split by packet (for train-time metric estimation).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    pub fn split_random(&self, fraction: f64, rng: &mut SimRng) -> (Dataset, Dataset) {
        assert!(fraction > 0.0 && fraction < 1.0, "fraction must be in (0, 1)");
        let mut indices: Vec<usize> = (0..self.records.len()).collect();
        rng.shuffle(&mut indices);
        let cut = (self.records.len() as f64 * fraction).round() as usize;
        let pick = |ix: &[usize]| {
            let mut v: Vec<PacketRecord> = ix.iter().map(|&i| self.records[i]).collect();
            v.sort_by_key(|r| r.ts);
            Dataset { records: v }
        };
        (pick(&indices[..cut]), pick(&indices[cut..]))
    }

    /// Time span covered by the dataset.
    pub fn duration_secs(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(first), Some(last)) => last.ts.saturating_since(first.ts).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Records within the inclusive virtual-time range `[from, to]`.
    pub fn between(&self, from: SimTime, to: SimTime) -> Dataset {
        Dataset {
            records: self
                .records
                .iter()
                .copied()
                .filter(|r| r.ts >= from && r.ts <= to)
                .collect(),
        }
    }

    /// Only the records with the given label.
    pub fn with_label(&self, label: Label) -> Dataset {
        Dataset { records: self.records.iter().copied().filter(|r| r.label == label).collect() }
    }

    /// Concatenates two datasets, keeping time order.
    pub fn merged(&self, other: &Dataset) -> Dataset {
        let mut records = self.records.clone();
        records.extend_from_slice(&other.records);
        Dataset::from_records(records)
    }

    /// Writes the dataset as CSV (with header).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer.
    pub fn write_csv<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "ts_ns,src,src_port,dst,dst_port,protocol,flags,wire_len,payload_len,seq,label")?;
        for r in &self.records {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{}",
                r.ts.as_nanos(),
                r.src,
                r.src_port,
                r.dst,
                r.dst_port,
                r.protocol.number(),
                r.flags.bits(),
                r.wire_len,
                r.payload_len,
                r.seq,
                r.label,
            )?;
        }
        Ok(())
    }

    /// Reads a dataset from CSV produced by [`Dataset::write_csv`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed rows.
    pub fn read_csv<R: BufRead>(input: R) -> io::Result<Dataset> {
        let mut records = Vec::new();
        for (i, line) in input.lines().enumerate() {
            let line = line?;
            if i == 0 || line.is_empty() {
                continue; // header
            }
            let record = parse_csv_row(&line).ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad csv row {}: {line}", i + 1))
            })?;
            records.push(record);
        }
        Ok(Dataset::from_records(records))
    }
}

fn parse_csv_row(line: &str) -> Option<PacketRecord> {
    let mut f = line.split(',');
    let ts = SimTime::from_nanos(f.next()?.parse().ok()?);
    let src = parse_addr(f.next()?)?;
    let src_port = f.next()?.parse().ok()?;
    let dst = parse_addr(f.next()?)?;
    let dst_port = f.next()?.parse().ok()?;
    let protocol = match f.next()? {
        "6" => Protocol::Tcp,
        "17" => Protocol::Udp,
        _ => return None,
    };
    let flags = TcpFlags::from_bits(f.next()?.parse().ok()?);
    let wire_len = f.next()?.parse().ok()?;
    let payload_len = f.next()?.parse().ok()?;
    let seq = f.next()?.parse().ok()?;
    let label = match f.next()? {
        "benign" => Label::Benign,
        "malicious" => Label::Malicious,
        _ => return None,
    };
    Some(PacketRecord { ts, src, src_port, dst, dst_port, protocol, flags, wire_len, payload_len, seq, label })
}

fn parse_addr(s: &str) -> Option<Addr> {
    let mut octets = [0u8; 4];
    let mut parts = s.split('.');
    for octet in &mut octets {
        *octet = parts.next()?.parse().ok()?;
    }
    parts.next().is_none().then_some(Addr::from(octets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ts_ms: u64, label: Label) -> PacketRecord {
        PacketRecord {
            ts: SimTime::from_millis(ts_ms),
            src: Addr::new(10, 0, 0, 1),
            src_port: 1234,
            dst: Addr::new(10, 0, 0, 2),
            dst_port: 80,
            protocol: Protocol::Tcp,
            flags: TcpFlags::SYN,
            wire_len: 40,
            payload_len: 0,
            seq: 7,
            label,
        }
    }

    #[test]
    fn class_counts_and_balance() {
        let ds = Dataset::from_records(vec![
            record(1, Label::Benign),
            record(2, Label::Malicious),
            record(3, Label::Malicious),
        ]);
        let counts = ds.class_counts();
        assert_eq!(counts.benign, 1);
        assert_eq!(counts.malicious, 2);
        assert_eq!(counts.total(), 3);
        assert!((counts.malicious_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert!((counts.balance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_records_sorts_by_time() {
        let ds = Dataset::from_records(vec![record(5, Label::Benign), record(1, Label::Benign)]);
        assert!(ds.records()[0].ts < ds.records()[1].ts);
    }

    #[test]
    fn time_split_is_chronological() {
        let records: Vec<PacketRecord> = (0..100).map(|i| record(i * 100, Label::Benign)).collect();
        let ds = Dataset::from_records(records);
        let (train, test) = ds.split_by_time(0.7);
        assert_eq!(train.len() + test.len(), 100);
        assert!(train.len() > 60 && train.len() < 80, "train {}", train.len());
        let train_max = train.records().last().unwrap().ts;
        let test_min = test.records().first().unwrap().ts;
        assert!(train_max < test_min);
    }

    #[test]
    fn random_split_partitions() {
        let records: Vec<PacketRecord> = (0..100)
            .map(|i| record(i, if i % 2 == 0 { Label::Benign } else { Label::Malicious }))
            .collect();
        let ds = Dataset::from_records(records);
        let mut rng = SimRng::seed_from(4);
        let (a, b) = ds.split_random(0.8, &mut rng);
        assert_eq!(a.len(), 80);
        assert_eq!(b.len(), 20);
        // Both classes present in both splits with overwhelming probability.
        assert!(a.class_counts().benign > 0 && a.class_counts().malicious > 0);
    }

    #[test]
    fn between_and_label_filters() {
        let ds = Dataset::from_records(vec![
            record(100, Label::Benign),
            record(1_500, Label::Malicious),
            record(2_900, Label::Benign),
        ]);
        let mid = ds.between(SimTime::from_millis(1_000), SimTime::from_millis(2_000));
        assert_eq!(mid.len(), 1);
        assert_eq!(mid.records()[0].label, Label::Malicious);
        assert_eq!(ds.with_label(Label::Benign).len(), 2);
        assert_eq!(ds.with_label(Label::Malicious).class_counts().malicious, 1);
    }

    #[test]
    fn merged_keeps_time_order() {
        let a = Dataset::from_records(vec![record(5, Label::Benign), record(50, Label::Benign)]);
        let b = Dataset::from_records(vec![record(20, Label::Malicious)]);
        let merged = a.merged(&b);
        assert_eq!(merged.len(), 3);
        assert!(merged.records().windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn csv_roundtrip_preserves_records() {
        let ds = Dataset::from_records(vec![
            record(1, Label::Benign),
            record(2, Label::Malicious),
        ]);
        let mut buf = Vec::new();
        ds.write_csv(&mut buf).unwrap();
        let back = Dataset::read_csv(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn malformed_csv_errors() {
        let bad = "header\nnot,a,row\n";
        assert!(Dataset::read_csv(io::BufReader::new(bad.as_bytes())).is_err());
    }

    #[test]
    fn duration_spans_first_to_last() {
        let ds = Dataset::from_records(vec![record(500, Label::Benign), record(2_500, Label::Benign)]);
        assert!((ds.duration_secs() - 2.0).abs() < 1e-9);
        assert_eq!(Dataset::new().duration_secs(), 0.0);
    }
}
