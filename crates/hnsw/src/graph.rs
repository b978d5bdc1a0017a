//! Internal adjacency storage for the multi-layer graph.
//!
//! Every neighbour list lives in one run of `u32` words; a [`Span`] per
//! (node, layer) says where ([`Tables`]). The builder owns its words
//! ([`Graph`]), reserves each list's degree budget up front and mutates it
//! in place; a decoded blob's whole node section *is* the run of words —
//! the validating walk only records where each list sits in it — so a
//! decoded graph costs two small tables however many nodes it has, each
//! bounded by the blob it came from, whether the words were copied out
//! ([`Graph::adopt`]) or are still the fetched bytes. Both are read
//! through the one [`GraphView::neighbors`].

/// Where one neighbour list sits among the words: `links[off..off + len]`,
/// with room to grow in place up to `cap` entries.
#[derive(Debug, Clone, Copy)]
struct Span {
    off: usize,
    len: u32,
    cap: u32,
}

/// Where every list sits: a node of level `l` owns `l + 1` consecutive
/// spans (layers `0..=l`).
#[derive(Debug, Clone)]
pub(crate) struct Tables {
    spans: Vec<Span>,
    /// `first[id]` is the index of node `id`'s layer-0 span; one sentinel
    /// entry past the last node closes its range.
    first: Vec<u32>,
}

impl Tables {
    /// No nodes yet, room for `nodes`.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        let mut first = Vec::with_capacity(nodes + 1);
        first.push(0);
        Tables {
            // Every node has a ground-layer list, and about one in M an
            // upper-layer one; more than an eighth grow the table.
            spans: Vec::with_capacity(nodes + nodes / 8),
            first,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// Decode path: the next layer's list of the node under construction
    /// is `len` words from `off`, with no room to grow;
    /// [`Tables::end_node`] completes the node. The caller has checked
    /// the range against the words it will be read from.
    pub(crate) fn push_list(&mut self, off: usize, len: u32) {
        self.spans.push(Span { off, len, cap: len });
    }

    /// Completes a node made of the lists pushed since the last one and
    /// returns its id.
    pub(crate) fn end_node(&mut self) -> u32 {
        let id = self.len() as u32;
        let end = u32::try_from(self.spans.len()).expect("fewer than 2^32 neighbour lists");
        self.first.push(end);
        id
    }

    /// These tables read over `links`.
    pub(crate) fn over<'a>(&'a self, links: &'a [u32]) -> GraphView<'a> {
        GraphView {
            links,
            spans: &self.spans,
            first: &self.first,
        }
    }
}

/// The adjacency as a search reads it: borrowed words and tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GraphView<'a> {
    links: &'a [u32],
    spans: &'a [Span],
    first: &'a [u32],
}

impl<'a> GraphView<'a> {
    pub(crate) fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// Index of the span of `id` on `layer`, if the node reaches it.
    #[inline]
    fn span_index(&self, id: u32, layer: usize) -> Option<usize> {
        let lo = self.first[id as usize] as usize;
        let hi = self.first[id as usize + 1] as usize;
        (layer < hi - lo).then_some(lo + layer)
    }

    /// Neighbours of `id` on `layer`; empty above the node's level.
    #[inline]
    pub(crate) fn neighbors(&self, id: u32, layer: usize) -> &'a [u32] {
        match self.span_index(id, layer) {
            Some(i) => {
                let s = self.spans[i];
                &self.links[s.off..s.off + s.len as usize]
            }
            None => &[],
        }
    }
}

/// Largest up-front reservation per list, in entries. A degree budget
/// above it (only a corrupt blob header is likely to carry one) is not
/// trusted with memory: those lists grow by doubling instead.
const MAX_RESERVE: usize = 256;

/// The whole multi-layer graph, owning its words: node adjacency plus
/// the entry point.
#[derive(Debug, Clone)]
pub(crate) struct Graph {
    links: Vec<u32>,
    tables: Tables,
    /// Slots reserved per list: layer 0, and every layer above.
    cap0: u32,
    cap_up: u32,
    pub(crate) entry: Option<u32>,
    pub(crate) max_level: usize,
}

impl Graph {
    /// An empty graph whose lists reserve `cap0` slots on the ground layer
    /// and `cap_up` above.
    pub(crate) fn new(cap0: usize, cap_up: usize) -> Self {
        Graph::adopt(cap0, cap_up, Vec::new(), Tables::with_capacity(0))
    }

    /// Decode path: a graph over words that already hold every list
    /// `tables` points at (count words of an adopted node section
    /// included), entry point still unset.
    pub(crate) fn adopt(cap0: usize, cap_up: usize, links: Vec<u32>, tables: Tables) -> Self {
        Graph {
            links,
            tables,
            cap0: cap0.min(MAX_RESERVE) as u32,
            cap_up: cap_up.min(MAX_RESERVE) as u32,
            entry: None,
            max_level: 0,
        }
    }

    pub(crate) fn view(&self) -> GraphView<'_> {
        self.tables.over(&self.links)
    }

    pub(crate) fn len(&self) -> usize {
        self.tables.len()
    }

    /// Slots a list on `layer` reserves when it is created or moved.
    fn reserve(&self, layer: usize) -> u32 {
        if layer == 0 {
            self.cap0
        } else {
            self.cap_up
        }
    }

    /// Highest layer node `id` exists on.
    pub(crate) fn level(&self, id: u32) -> usize {
        let first = &self.tables.first;
        (first[id as usize + 1] - first[id as usize]) as usize - 1
    }

    /// Neighbours of `id` on `layer`; empty above the node's level.
    #[inline]
    pub(crate) fn neighbors(&self, id: u32, layer: usize) -> &[u32] {
        self.view().neighbors(id, layer)
    }

    /// Total neighbour-list count and total entries over all of them.
    pub(crate) fn list_and_link_counts(&self) -> (usize, usize) {
        let links = self.tables.spans.iter().map(|s| s.len as usize).sum();
        (self.tables.spans.len(), links)
    }

    /// Appends a node of the given level with empty, fully reserved lists
    /// and returns its id; promotes it to entry point if it is the first
    /// node or reaches a new highest level.
    pub(crate) fn push_node(&mut self, level: usize) -> u32 {
        for layer in 0..=level {
            let cap = self.reserve(layer);
            self.tables.spans.push(Span {
                off: self.links.len(),
                len: 0,
                cap,
            });
            self.links.resize(self.links.len() + cap as usize, 0);
        }
        let id = self.tables.end_node();
        if self.entry.is_none() || level > self.max_level {
            self.entry = Some(id);
            self.max_level = level;
        }
        id
    }

    /// Appends `nb` to `id`'s list on `layer`. A list that is out of room
    /// (a decoded one, or one past [`MAX_RESERVE`]) moves to the arena's
    /// end with its layer's reservation or twice its length.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist on `layer`.
    pub(crate) fn push_link(&mut self, id: u32, layer: usize, nb: u32) {
        let i = self
            .view()
            .span_index(id, layer)
            .expect("node exists on layer");
        let mut s = self.tables.spans[i];
        if s.len == s.cap {
            let old = s.off..s.off + s.len as usize;
            s.off = self.links.len();
            s.cap = self.reserve(layer).max(s.len.saturating_mul(2)).max(1);
            self.links.extend_from_within(old);
            self.links.resize(s.off + s.cap as usize, 0);
        }
        self.links[s.off + s.len as usize] = nb;
        s.len += 1;
        self.tables.spans[i] = s;
    }

    /// Replaces `id`'s list on `layer` with `list`, which must not be
    /// longer than the current one (pruning only ever shrinks).
    pub(crate) fn set_neighbors(&mut self, id: u32, layer: usize, list: &[u32]) {
        let i = self
            .view()
            .span_index(id, layer)
            .expect("node exists on layer");
        let s = &mut self.tables.spans[i];
        assert!(list.len() <= s.len as usize, "pruning grew a list");
        self.links[s.off..s.off + list.len()].copy_from_slice(list);
        s.len = list.len() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_level_matches_layer_count() {
        let mut g = Graph::new(4, 2);
        let n = g.push_node(2);
        assert_eq!(g.level(n), 2);
        assert!(g.neighbors(n, 0).is_empty());
        assert!(g.neighbors(n, 5).is_empty(), "missing layers read as empty");
        assert_eq!(g.list_and_link_counts(), (3, 0));
    }

    #[test]
    fn first_node_becomes_entry() {
        let mut g = Graph::new(4, 2);
        let id = g.push_node(0);
        assert_eq!(g.entry, Some(id));
        assert_eq!(g.max_level, 0);
    }

    #[test]
    fn higher_level_node_takes_over_entry() {
        let mut g = Graph::new(4, 2);
        g.push_node(0);
        let high = g.push_node(3);
        assert_eq!(g.entry, Some(high));
        assert_eq!(g.max_level, 3);
        // An equal-level later node must NOT steal the entry point.
        g.push_node(3);
        assert_eq!(g.entry, Some(high));
    }

    #[test]
    fn links_are_mutable_per_layer() {
        let mut g = Graph::new(4, 2);
        let a = g.push_node(1);
        let b = g.push_node(0);
        g.push_link(a, 0, b);
        g.push_link(b, 0, a);
        assert_eq!(g.neighbors(a, 0), &[b]);
        assert_eq!(g.neighbors(a, 1), &[] as &[u32]);
        g.push_link(a, 0, a);
        g.set_neighbors(a, 0, &[a]);
        assert_eq!(g.neighbors(a, 0), &[a]);
        assert_eq!(g.neighbors(b, 0), &[a], "b's list is untouched");
    }

    #[test]
    fn exact_length_lists_grow_by_moving() {
        // Decoded lists have no spare room; pushing relocates them and
        // leaves every other list intact.
        // Arena words between the lists (99) belong to no list.
        let mut t = Tables::with_capacity(3);
        t.push_list(1, 2);
        t.push_list(4, 1);
        let a = t.end_node();
        t.push_list(6, 1);
        let b = t.end_node();
        t.push_list(8, 0);
        let c = t.end_node();
        let mut g = Graph::adopt(4, 2, vec![99, 1, 2, 99, 1, 99, 0, 99], t);
        assert_eq!((g.level(a), g.level(b), g.level(c)), (1, 0, 0));
        for nb in [7, 8, 9] {
            g.push_link(a, 0, nb);
        }
        g.push_link(c, 0, 5);
        assert_eq!(g.neighbors(a, 0), &[1, 2, 7, 8, 9]);
        assert_eq!(g.neighbors(a, 1), &[1]);
        assert_eq!(g.neighbors(b, 0), &[0]);
        assert_eq!(g.neighbors(c, 0), &[5]);
        assert_eq!(g.list_and_link_counts(), (4, 8));
    }
}
