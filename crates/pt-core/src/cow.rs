//! [`CowChunks`]: the copy-on-write array that every index shared between a
//! mutable network and its published snapshots is stored in.

use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// An array of `T` stored as `Arc<[T]>` chunks of `C` elements each (the
/// last one may be shorter) behind one `Arc`'d spine.
///
/// * A clone costs one refcount and shares every chunk.
/// * Reading element `i` is two indexed loads: chunk `i / C` from the
///   spine, then element `i % C` from the chunk.
/// * [`CowChunks::make_mut`] copies at most the spine and one chunk: the
///   spine on the first write after a clone, a chunk on the first write to
///   it. Two clones that diverged by a few writes still share every chunk
///   neither of them wrote.
/// * [`CowChunks::push`] and [`Extend`] append by replacing the last chunk.
///
/// Dropping a clone costs one refcount, plus one per chunk of a spine it
/// alone held, plus the elements of the chunks it alone held.
pub struct CowChunks<T, const C: usize> {
    spine: Arc<[Arc<[T]>]>,
    len: usize,
}

impl<T, const C: usize> CowChunks<T, C> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff there is no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.spine.iter().flat_map(|chunk| chunk.iter())
    }

    /// The bytes of `self` it does not share with `older`, as `(spine,
    /// chunks)`: nothing if both hold the same spine, else the spine, and
    /// `C` elements for each chunk that is not the one `older` holds at the
    /// same position. After `self` was cloned from `older`, that is what
    /// writing to it copied.
    pub fn unshared_bytes(&self, older: &Self) -> (usize, usize) {
        if Arc::ptr_eq(&self.spine, &older.spine) {
            return (0, 0);
        }
        let shared = |k: usize| older.spine.get(k).is_some_and(|o| Arc::ptr_eq(o, &self.spine[k]));
        let copied = (0..self.spine.len()).filter(|&k| !shared(k)).count();
        (self.spine.len() * size_of::<Arc<[T]>>(), copied * C * size_of::<T>())
    }
}

impl<T: Clone, const C: usize> CowChunks<T, C> {
    /// Element `i`, writable. Copies the spine if a clone shares it, then
    /// chunk `i / C` if another spine holds it.
    pub fn make_mut(&mut self, i: usize) -> &mut T {
        let spine = Arc::make_mut(&mut self.spine);
        &mut Arc::make_mut(&mut spine[i / C])[i % C]
    }

    /// Appends one element.
    pub fn push(&mut self, value: T) {
        self.extend(std::iter::once(value));
    }
}

impl<T: Clone, const C: usize> Extend<T> for CowChunks<T, C> {
    /// Refills a short last chunk, then adds full chunks: one new spine
    /// per call, however many elements it appends.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter().peekable();
        if iter.peek().is_none() {
            return;
        }
        let mut spine = self.spine.to_vec();
        if let Some(last) = spine.pop_if(|chunk| chunk.len() < C) {
            let room = C - last.len();
            spine.push(last.iter().cloned().chain(iter.by_ref().take(room)).collect());
        }
        loop {
            let chunk: Arc<[T]> = iter.by_ref().take(C).collect();
            if chunk.is_empty() {
                break;
            }
            spine.push(chunk);
        }
        self.len = spine.iter().map(|chunk| chunk.len()).sum();
        self.spine = spine.into();
    }
}

impl<T: Clone, const C: usize> FromIterator<T> for CowChunks<T, C> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::default();
        out.extend(iter);
        out
    }
}

impl<T, const C: usize> Index<usize> for CowChunks<T, C> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.spine[i / C][i % C]
    }
}

impl<T, const C: usize> Default for CowChunks<T, C> {
    fn default() -> Self {
        CowChunks { spine: Arc::new([]), len: 0 }
    }
}

impl<T, const C: usize> Clone for CowChunks<T, C> {
    fn clone(&self) -> Self {
        CowChunks { spine: Arc::clone(&self.spine), len: self.len }
    }
}

impl<T: PartialEq, const C: usize> PartialEq for CowChunks<T, C> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq, const C: usize> Eq for CowChunks<T, C> {}

impl<T: fmt::Debug, const C: usize> fmt::Debug for CowChunks<T, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Words = CowChunks<u32, 4>;

    fn chunk_lens<T, const C: usize>(a: &CowChunks<T, C>) -> Vec<usize> {
        a.spine.iter().map(|chunk| chunk.len()).collect()
    }

    #[test]
    fn empty_array() {
        let a: Words = std::iter::empty().collect();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.iter().count(), 0);
        assert_eq!(a, Words::default());
        assert_eq!(a.unshared_bytes(&a.clone()), (0, 0));
        assert_eq!(format!("{a:?}"), "[]");
    }

    #[test]
    fn length_not_a_multiple_of_the_chunk() {
        let a: Words = (0..10).collect();
        assert_eq!(a.len(), 10);
        assert_eq!(chunk_lens(&a), [4, 4, 2]);
        assert!((0..10).all(|i| a[i] == i as u32));
        assert!(a.iter().copied().eq(0..10));
        let out_of_bounds = std::panic::catch_unwind(|| a[10]);
        assert!(out_of_bounds.is_err(), "index 10 of 10 elements must panic");
    }

    #[test]
    fn push_across_a_chunk_boundary() {
        let mut a: Words = (0..3).collect();
        let before = a.clone();
        for v in 3..6 {
            a.push(v);
        }
        assert_eq!(chunk_lens(&a), [4, 2]);
        assert!(a.iter().copied().eq(0..6));
        assert!(before.iter().copied().eq(0..3), "a push must not reach a clone");
        a.extend(6..13);
        assert_eq!(chunk_lens(&a), [4, 4, 4, 1]);
        assert!(a.iter().copied().eq(0..13));
        a.extend(std::iter::empty());
        assert_eq!(a.len(), 13);
    }

    #[test]
    fn make_mut_after_a_clone_copies_one_chunk() {
        let mut a: CowChunks<Arc<u32>, 4> = (0..10).map(Arc::new).collect();
        let pinned = a.clone();
        assert_eq!(a.unshared_bytes(&pinned), (0, 0), "a clone shares the spine");
        *a.make_mut(5) = Arc::new(50);
        *a.make_mut(6) = Arc::new(60);
        assert_eq!((*a[5], *a[6], *pinned[5], *pinned[6]), (50, 60, 5, 6));
        let shared: Vec<bool> =
            a.spine.iter().zip(pinned.spine.iter()).map(|(x, y)| Arc::ptr_eq(x, y)).collect();
        assert_eq!(shared, [true, false, true], "only the written chunk is copied");
        // Inside the copied chunk, the elements not written stay shared.
        assert!(Arc::ptr_eq(&a[4], &pinned[4]) && Arc::ptr_eq(&a[7], &pinned[7]));
        let spine = 3 * size_of::<Arc<[Arc<u32>]>>();
        assert_eq!(a.unshared_bytes(&pinned), (spine, 4 * size_of::<Arc<u32>>()));
    }

    #[test]
    fn equality_is_by_element() {
        let collected: Words = (0..9).collect();
        let mut pushed = Words::default();
        (0..9).for_each(|v| pushed.push(v));
        assert_eq!(collected, pushed, "same elements, separately allocated chunks");
        *pushed.make_mut(8) = 80;
        assert_ne!(collected, pushed);
        let shorter: Words = (0..8).collect();
        assert_ne!(collected, shorter);
    }
}
