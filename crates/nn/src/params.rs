//! Persistent parameter storage shared across tapes.
//!
//! A model owns a [`ParamStore`]; every forward pass opens
//! [`Bindings`] on a fresh tape via [`ParamStore::bind`], which place a
//! parameter on the tape (as a gradient-requiring leaf) the first time
//! the pass asks for it. After `backward` the optimizer reads the
//! gradients back through the bindings.
//!
//! Binding lazily means a pass that uses only part of a model (an
//! embedding computed on a tape of its own) copies only that part. It
//! changes no value or gradient: a leaf has no inputs, and its consumers
//! accumulate into it in the same order wherever it sits on the tape.

use crate::tape::{Tape, Var};
use ged_linalg::Matrix;
use std::cell::Cell;

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParamId(pub(crate) usize);

/// Owns the trainable matrices of a model.
#[derive(Default)]
pub struct ParamStore {
    values: Vec<Matrix>,
    names: Vec<String>,
}

/// The tape bindings of one forward pass: each parameter is bound onto
/// the tape the first time [`Bindings::var`] asks for it.
pub struct Bindings<'a> {
    store: &'a ParamStore,
    tape: &'a Tape,
    vars: Vec<Cell<Option<Var>>>,
}

impl ParamStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an initial value.
    pub fn register(&mut self, name: &str, value: Matrix) -> ParamId {
        self.values.push(value);
        self.names.push(name.to_string());
        ParamId(self.values.len() - 1)
    }

    /// Number of parameters (tensors).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Current value of a parameter.
    #[must_use]
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable value of a parameter (used by optimizers and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.values[id.0]
    }

    /// Name of a parameter.
    #[must_use]
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Opens bindings of this store's parameters onto `tape`; each is
    /// bound as a gradient-requiring leaf on first use.
    #[must_use]
    pub fn bind<'a>(&'a self, tape: &'a Tape) -> Bindings<'a> {
        Bindings {
            store: self,
            tape,
            vars: vec![Cell::new(None); self.values.len()],
        }
    }

    /// Reads the gradient of every parameter from a backward-completed
    /// tape. A parameter the pass never bound gets zeros, as an unused
    /// leaf would.
    #[must_use]
    pub fn gradients(&self, tape: &Tape, bindings: &Bindings<'_>) -> Vec<Matrix> {
        bindings
            .vars
            .iter()
            .zip(&self.values)
            .map(|(var, value)| match var.get() {
                Some(v) => tape.grad(v),
                None => Matrix::zeros(value.rows(), value.cols()),
            })
            .collect()
    }

    /// Raw access for optimizers: `(values, count)`.
    pub(crate) fn values_mut(&mut self) -> &mut [Matrix] {
        &mut self.values
    }
}

impl Bindings<'_> {
    /// The tape variable bound to `id`, binding it on first use.
    #[must_use]
    pub fn var(&self, id: ParamId) -> Var {
        let slot = &self.vars[id.0];
        slot.get().unwrap_or_else(|| {
            let v = self.tape.leaf(self.store.values[id.0].clone(), true);
            slot.set(Some(v));
            v
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bind_and_read_back() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        assert_eq!(store.len(), 1);
        assert_eq!(store.num_scalars(), 2);
        assert_eq!(store.name(w), "w");

        let tape = Tape::new();
        let b = store.bind(&tape);
        let x = tape.constant(Matrix::from_vec(2, 1, vec![5.0, 7.0]));
        let y = tape.matmul(b.var(w), x); // 2*5 + 3*7 = 31
        assert!((tape.scalar_value(y) - 31.0).abs() < 1e-12);
        tape.backward(y);
        let grads = store.gradients(&tape, &b);
        assert_eq!(grads[0].as_slice(), &[5.0, 7.0]);
    }

    #[test]
    fn binds_lazily_and_unbound_parameters_get_zero_gradients() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let unused = store.register("unused", Matrix::filled(2, 3, 9.0));

        let tape = Tape::new();
        let b = store.bind(&tape);
        assert!(tape.is_empty(), "bind places nothing on the tape");
        assert_eq!(b.var(w), b.var(w), "a parameter is bound once");
        assert_eq!(tape.len(), 1);
        let x = tape.constant(Matrix::from_vec(2, 1, vec![5.0, 7.0]));
        let y = tape.matmul(b.var(w), x);
        tape.backward(y);
        let grads = store.gradients(&tape, &b);
        assert_eq!(grads[w.0].as_slice(), &[5.0, 7.0]);
        assert_eq!(grads[unused.0].shape(), (2, 3));
        assert!(grads[unused.0].as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn gradients_do_not_depend_on_where_a_parameter_is_bound() {
        // The same loss, with `w` bound before anything else or only
        // where it is first used: values and gradients agree bit for bit.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::from_vec(2, 2, vec![0.3, -1.1, 0.7, 0.2]));
        let v = store.register("v", Matrix::from_vec(2, 1, vec![1.5, -0.4]));
        let run = |bind_first: bool| {
            let tape = Tape::new();
            let b = store.bind(&tape);
            if bind_first {
                let _ = (b.var(w), b.var(v));
            }
            let x = tape.constant(Matrix::from_vec(1, 2, vec![0.9, -2.0]));
            let h = tape.tanh(tape.matmul(x, b.var(w)));
            let h2 = tape.matmul(h, b.var(w));
            let out = tape.matmul(tape.add(h, h2), b.var(v));
            let loss = tape.sigmoid(out);
            tape.backward(loss);
            (tape.scalar_value(loss), store.gradients(&tape, &b))
        };
        let (l_eager, g_eager) = run(true);
        let (l_lazy, g_lazy) = run(false);
        assert_eq!(l_eager.to_bits(), l_lazy.to_bits());
        for (a, b) in g_eager.iter().zip(&g_lazy) {
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }
}

// ----- checkpointing ---------------------------------------------------

/// A serializable snapshot of every parameter (name, shape, data).
///
/// Trained models can be checkpointed to disk and restored later;
/// restoration is by-name so it also guards against architecture drift.
#[derive(Debug)]
pub struct Checkpoint {
    entries: Vec<(String, usize, usize, Vec<f64>)>,
}

impl ParamStore {
    /// Captures a checkpoint of all current parameter values.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let entries = self
            .values
            .iter()
            .zip(&self.names)
            .map(|(m, n)| (n.clone(), m.rows(), m.cols(), m.as_slice().to_vec()))
            .collect();
        Checkpoint { entries }
    }

    /// Restores parameter values from a checkpoint.
    ///
    /// # Errors
    /// Fails if the checkpoint's names or shapes do not match this store.
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), String> {
        if ckpt.entries.len() != self.values.len() {
            return Err(format!(
                "checkpoint has {} tensors, store has {}",
                ckpt.entries.len(),
                self.values.len()
            ));
        }
        for (i, (name, rows, cols, data)) in ckpt.entries.iter().enumerate() {
            if &self.names[i] != name {
                return Err(format!(
                    "tensor #{i}: name '{}' vs '{}'",
                    self.names[i], name
                ));
            }
            if self.values[i].shape() != (*rows, *cols) {
                return Err(format!(
                    "tensor '{name}': shape {:?} vs ({rows},{cols})",
                    self.values[i].shape()
                ));
            }
            self.values[i] = Matrix::from_vec(*rows, *cols, data.clone());
        }
        Ok(())
    }
}

impl Checkpoint {
    /// Serializes to a simple line-oriented text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, rows, cols, data) in &self.entries {
            out.push_str(&format!("{name} {rows} {cols}"));
            for v in data {
                out.push_str(&format!(" {v:e}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`Checkpoint::to_text`].
    ///
    /// # Errors
    /// Reports the first malformed line.
    pub fn from_text(s: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (lineno, line) in s.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {lineno}: missing name"))?;
            let rows: usize = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("line {lineno}: bad rows"))?;
            let cols: usize = it
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| format!("line {lineno}: bad cols"))?;
            let data: Vec<f64> = it
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("line {lineno}: bad value: {e}"))?;
            if data.len() != rows * cols {
                return Err(format!(
                    "line {lineno}: expected {} values, got {}",
                    rows * cols,
                    data.len()
                ));
            }
            entries.push((name.to_string(), rows, cols, data));
        }
        Ok(Checkpoint { entries })
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.register("a", Matrix::from_vec(1, 2, vec![1.5, -2.25]));
        s.register("b", Matrix::from_vec(2, 2, vec![0.0, 1e-9, 3.0, -4.0]));
        s
    }

    #[test]
    fn roundtrip_exact() {
        let store = sample_store();
        let text = store.checkpoint().to_text();
        let ckpt = Checkpoint::from_text(&text).unwrap();
        let mut other = sample_store();
        *other.value_mut(ParamId(0)) = Matrix::zeros(1, 2);
        other.restore(&ckpt).unwrap();
        assert_eq!(other.value(ParamId(0)).as_slice(), &[1.5, -2.25]);
        assert_eq!(other.value(ParamId(1)).as_slice(), &[0.0, 1e-9, 3.0, -4.0]);
    }

    #[test]
    fn restore_rejects_mismatches() {
        let store = sample_store();
        let ckpt = store.checkpoint();
        let mut wrong_names = ParamStore::new();
        wrong_names.register("x", Matrix::zeros(1, 2));
        wrong_names.register("b", Matrix::zeros(2, 2));
        assert!(wrong_names.restore(&ckpt).unwrap_err().contains("name"));

        let mut wrong_shape = ParamStore::new();
        wrong_shape.register("a", Matrix::zeros(2, 1));
        wrong_shape.register("b", Matrix::zeros(2, 2));
        assert!(wrong_shape.restore(&ckpt).unwrap_err().contains("shape"));

        let mut wrong_count = ParamStore::new();
        wrong_count.register("a", Matrix::zeros(1, 2));
        assert!(wrong_count.restore(&ckpt).unwrap_err().contains("tensors"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Checkpoint::from_text("a 2 2 1.0")
            .unwrap_err()
            .contains("expected"));
        assert!(Checkpoint::from_text("a x 2 1.0")
            .unwrap_err()
            .contains("bad rows"));
    }
}
