//! Shared longest-processing-time fan-out: tick workers (one job per
//! touched partition, each owning its disjoint `&mut` sub-index) and
//! read batches (range queries per partition, kNN searches per query).

/// Runs one job per item on up to `workers` scoped threads and returns
/// the results **in input order** — the output is identical to
/// `items.into_iter().map(run).collect()` regardless of the worker
/// count or schedule, which is what lets callers promise
/// schedule-invariant results.
///
/// Items are distributed longest-first (by `load`) onto the currently
/// lightest worker. `workers <= 1` (or a single item) runs everything
/// on the calling thread.
pub(crate) fn lpt_fan_out<T, R, L, F>(items: Vec<T>, workers: usize, load: L, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    L: Fn(&T) -> usize,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items.into_iter().map(run).collect();
    }
    let loads_of: Vec<usize> = items.iter().map(|t| load(t).max(1)).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(loads_of[i]));
    let mut groups: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
    let mut loads = vec![0usize; workers];
    for i in order {
        let lightest = (0..workers)
            .min_by_key(|&g| loads[g])
            .expect("workers >= 1");
        loads[lightest] += loads_of[i];
        groups[lightest].push(i);
    }
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let grouped: Vec<Vec<(usize, T)>> = groups
        .into_iter()
        .map(|group| {
            group
                .into_iter()
                .map(|i| (i, items[i].take().expect("each item grouped once")))
                .collect()
        })
        .collect();
    let run = &run;
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let answered: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = grouped
            .into_iter()
            .map(|group| {
                scope.spawn(move || {
                    group
                        .into_iter()
                        .map(|(i, item)| (i, run(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    for (i, result) in answered.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every item answered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_across_worker_counts() {
        let items: Vec<usize> = (0..37).collect();
        let sequential = lpt_fan_out(items.clone(), 1, |&i| i, |i| i * 10);
        for workers in [2, 4, 16, 64] {
            let parallel = lpt_fan_out(items.clone(), workers, |&i| i, |i| i * 10);
            assert_eq!(sequential, parallel, "workers = {workers}");
        }
        assert_eq!(sequential, (0..37).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(lpt_fan_out(Vec::<usize>::new(), 4, |_| 1, |i| i).is_empty());
        assert_eq!(lpt_fan_out(vec![7usize], 4, |_| 1, |i| i + 1), vec![8]);
    }
}
