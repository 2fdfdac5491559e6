//! Live metric streaming — the distributed shape of LDMS.
//!
//! The real LDMS is a network of per-node sampler daemons pushing metric
//! sets to aggregators (paper §II-B, ref \[19\]). This module reproduces that
//! topology in-process: node producers send [`Sample`]s over a bounded
//! `std::sync::mpsc::sync_channel` to one aggregator thread that folds
//! them into per-channel series and exposes them on completion.
//! Back-pressure from the bounded channel (`send` blocks when the buffer
//! is full) models the aggregate-rate limits that force the production
//! system to drop samples.

use crate::quality::{quarantine, CleanSeries, QualityConfig, RawSeries};
use crate::series::TimeSeries;
use crate::store::Channel;
use std::collections::BTreeMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

/// Points accumulated per (node, channel), in arrival order.
type RawAcc = BTreeMap<(usize, Channel), Vec<(f64, f64)>>;

enum Msg {
    Sample(Sample),
    Shutdown,
}

/// One streamed measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub node: usize,
    pub channel: Channel,
    /// Timestamp, seconds.
    pub t: f64,
    /// Power, watts.
    pub watts: f64,
}

/// Handle held by a producer (one per node daemon).
#[derive(Clone)]
pub struct Producer {
    tx: SyncSender<Msg>,
}

impl Producer {
    /// Push one sample; blocks when the aggregator is saturated
    /// (back-pressure). Returns `false` if the aggregator has shut down.
    pub fn push(&self, sample: Sample) -> bool {
        self.tx.send(Msg::Sample(sample)).is_ok()
    }
}

/// The in-process aggregator.
pub struct LiveCollector {
    tx: Option<SyncSender<Msg>>,
    worker: Option<JoinHandle<RawAcc>>,
}

impl LiveCollector {
    /// Start an aggregator with the given channel capacity (samples in
    /// flight before producers block).
    #[must_use]
    pub fn start(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let (tx, rx) = sync_channel::<Msg>(capacity);
        let worker = std::thread::spawn(move || {
            let mut acc = RawAcc::new();
            // Exit on the shutdown sentinel (or all senders dropping), so
            // `finish` works even while producer handles are still alive.
            while let Ok(msg) = rx.recv() {
                match msg {
                    Msg::Sample(s) => acc
                        .entry((s.node, s.channel))
                        .or_default()
                        .push((s.t, s.watts)),
                    Msg::Shutdown => break,
                }
            }
            acc
        });
        Self {
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// A new producer handle (clone per node daemon).
    ///
    /// # Panics
    /// If the collector has already been finished.
    #[must_use]
    pub fn producer(&self) -> Producer {
        Producer {
            tx: self.tx.as_ref().expect("collector already finished").clone(),
        }
    }

    /// Close the intake and return the per-channel streams exactly as they
    /// arrived — unordered, possibly duplicated, possibly non-finite.
    ///
    /// # Panics
    /// If the aggregator thread panicked.
    #[must_use]
    pub fn finish_raw(mut self) -> BTreeMap<(usize, Channel), RawSeries> {
        if let Some(tx) = self.tx.take() {
            // Queued samples ahead of the sentinel are still processed.
            let _ = tx.send(Msg::Shutdown);
        }
        let acc = self
            .worker
            .take()
            .expect("finish called twice")
            .join()
            .expect("aggregator panicked");
        acc.into_iter()
            .map(|(key, points)| (key, RawSeries::from_points(points)))
            .collect()
    }

    /// Close the intake and collect the per-channel series. Out-of-order
    /// arrivals (producers race) are sorted by timestamp; duplicate
    /// timestamps keep the last arrival. Trusts the producers: dirty
    /// values (NaN readings etc.) panic downstream in
    /// [`TimeSeries::new`] — use [`finish_quarantined`](Self::finish_quarantined)
    /// when the input may be dirty.
    ///
    /// # Panics
    /// If the aggregator thread panicked.
    #[must_use]
    pub fn finish(self) -> BTreeMap<(usize, Channel), TimeSeries> {
        self.finish_raw()
            .into_iter()
            .map(|(key, raw)| {
                let mut points = raw.points().to_vec();
                // Stable sort: equal timestamps keep arrival order, so the
                // last arrival is the last of each equal-timestamp group.
                points.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut kept: Vec<(f64, f64)> = Vec::with_capacity(points.len());
                for p in points {
                    match kept.last_mut() {
                        Some(last) if last.0 == p.0 => *last = p,
                        _ => kept.push(p),
                    }
                }
                let (times, values): (Vec<f64>, Vec<f64>) = kept.into_iter().unzip();
                (key, TimeSeries::new(times, values))
            })
            .collect()
    }

    /// Close the intake and run every per-channel stream through the
    /// quarantine screen: dirty data (non-finite readings, implausible
    /// values, stuck runs, duplicates, reordering) is cleaned and
    /// accounted for in each [`CleanSeries::quality`] report instead of
    /// panicking downstream.
    ///
    /// # Panics
    /// If the aggregator thread panicked.
    #[must_use]
    pub fn finish_quarantined(
        self,
        cfg: &QualityConfig,
    ) -> BTreeMap<(usize, Channel), CleanSeries> {
        self.finish_raw()
            .into_iter()
            .map(|(key, raw)| (key, quarantine(&raw, cfg)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_from_many_threads_are_aggregated() {
        let collector = LiveCollector::start(64);
        let handles: Vec<_> = (0..4)
            .map(|node| {
                let p = collector.producer();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        assert!(p.push(Sample {
                            node,
                            channel: Channel::Node,
                            t: i as f64,
                            watts: 1000.0 + node as f64,
                        }));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let series = collector.finish();
        assert_eq!(series.len(), 4);
        for node in 0..4 {
            let s = &series[&(node, Channel::Node)];
            assert_eq!(s.len(), 50);
            assert!((s.mean() - (1000.0 + node as f64)).abs() < 1e-9);
        }
    }

    #[test]
    fn out_of_order_arrivals_are_sorted() {
        let collector = LiveCollector::start(16);
        let p = collector.producer();
        for &t in &[3.0, 1.0, 2.0, 5.0, 4.0] {
            p.push(Sample {
                node: 0,
                channel: Channel::Cpu,
                t,
                watts: t * 10.0,
            });
        }
        let series = collector.finish();
        let s = &series[&(0, Channel::Cpu)];
        assert_eq!(s.times(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.values(), &[10.0, 20.0, 30.0, 40.0, 50.0]);
    }

    #[test]
    fn multiple_channels_per_node_stay_separate() {
        let collector = LiveCollector::start(16);
        let p = collector.producer();
        for (chan, w) in [(Channel::Node, 1800.0), (Channel::Gpu(0), 350.0)] {
            p.push(Sample {
                node: 7,
                channel: chan,
                t: 1.0,
                watts: w,
            });
        }
        let series = collector.finish();
        assert_eq!(series[&(7, Channel::Node)].values(), &[1800.0]);
        assert_eq!(series[&(7, Channel::Gpu(0))].values(), &[350.0]);
    }

    #[test]
    fn bounded_channel_applies_back_pressure_not_loss() {
        // A tiny buffer with a slow consumer: every sample still arrives.
        let collector = LiveCollector::start(2);
        let p = collector.producer();
        let producer = std::thread::spawn(move || {
            for i in 0..500 {
                assert!(p.push(Sample {
                    node: 0,
                    channel: Channel::Mem,
                    t: i as f64,
                    watts: 30.0,
                }));
            }
        });
        producer.join().unwrap();
        let series = collector.finish();
        assert_eq!(series[&(0, Channel::Mem)].len(), 500);
    }

    #[test]
    fn push_after_finish_reports_shutdown() {
        let collector = LiveCollector::start(4);
        let p = collector.producer();
        let _ = collector.finish();
        assert!(!p.push(Sample {
            node: 0,
            channel: Channel::Node,
            t: 0.0,
            watts: 1.0,
        }));
    }

    #[test]
    fn empty_collector_finishes_empty() {
        let collector = LiveCollector::start(4);
        assert!(collector.finish().is_empty());
    }

    #[test]
    fn duplicate_timestamps_keep_the_last_arrival() {
        // Regression: `dedup_by` after a stable sort kept the *first*
        // arrival, contradicting the documented keep-last contract.
        // Two producers race on the same timestamp; arrival order is
        // serialised by joining producer A before producer B sends.
        let collector = LiveCollector::start(16);
        let a = collector.producer();
        let b = collector.producer();
        std::thread::spawn(move || {
            a.push(Sample {
                node: 0,
                channel: Channel::Node,
                t: 1.0,
                watts: 100.0,
            });
        })
        .join()
        .unwrap();
        std::thread::spawn(move || {
            b.push(Sample {
                node: 0,
                channel: Channel::Node,
                t: 1.0,
                watts: 200.0,
            });
        })
        .join()
        .unwrap();
        let series = collector.finish();
        assert_eq!(
            series[&(0, Channel::Node)].values(),
            &[200.0],
            "the later arrival must win"
        );
    }

    #[test]
    fn keep_last_holds_among_earlier_and_later_neighbours() {
        let collector = LiveCollector::start(16);
        let p = collector.producer();
        for (t, w) in [(1.0, 10.0), (2.0, 20.0), (2.0, 21.0), (2.0, 22.0), (3.0, 30.0)] {
            p.push(Sample {
                node: 0,
                channel: Channel::Cpu,
                t,
                watts: w,
            });
        }
        let series = collector.finish();
        let s = &series[&(0, Channel::Cpu)];
        assert_eq!(s.times(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.values(), &[10.0, 22.0, 30.0]);
    }

    #[test]
    fn finish_raw_preserves_arrival_order() {
        let collector = LiveCollector::start(16);
        let p = collector.producer();
        for &t in &[3.0, 1.0, 2.0] {
            p.push(Sample {
                node: 0,
                channel: Channel::Node,
                t,
                watts: t,
            });
        }
        let raw = collector.finish_raw();
        assert_eq!(
            raw[&(0, Channel::Node)].points(),
            &[(3.0, 3.0), (1.0, 1.0), (2.0, 2.0)]
        );
    }

    #[test]
    fn finish_quarantined_survives_dirty_producers() {
        // A NaN reading would panic `finish` downstream; the quarantined
        // path cleans and accounts for it.
        let collector = LiveCollector::start(16);
        let p = collector.producer();
        for (t, w) in [(1.0, 500.0), (2.0, f64::NAN), (3.0, 510.0), (3.0, 512.0)] {
            p.push(Sample {
                node: 4,
                channel: Channel::Node,
                t,
                watts: w,
            });
        }
        let clean = collector.finish_quarantined(&QualityConfig::new(1.0));
        let c = &clean[&(4, Channel::Node)];
        assert_eq!(c.series.values(), &[500.0, 512.0]);
        assert_eq!(c.quality.non_finite_removed, 1);
        assert_eq!(c.quality.duplicates_resolved, 1);
    }
}
