/*
 * C kernel: the closure of bsp._kernel_py on 64-bit bitsets, d <= 6, and
 * its Close-by-One walk of an enumeration branch.
 *
 * Plain C99 with no Python API.  bsp/_kernel_c.py loads the compiled
 * library through ctypes, checks every argument before it gets here, and
 * turns the results into the values bsp._kernel_py returns.  Callers own
 * every output buffer.
 *
 * The design is the one described in the docstring of bsp/_kernel_py.py:
 * a set is closed on its greedy basis B, with the matrix M (B and the
 * completing unit vectors), w(y) = D times the coordinates of a point y
 * in the rows of M, and per-point bitsets over the 2^r patterns sigma,
 * ok[y] (t(y, sigma) in {0, D}) and one[y] (t(y, sigma) = D).  The
 * valid patterns are the AND of ok over the set, the closure is the span
 * points y with ok[y] & valid == valid, and the rows come from one.
 * close_set walks the points of the set in ascending order from M = I,
 * D = 1, and extend, a transcription of bsp.linalg.extend, puts each one
 * outside the span into M by the exact-division update that keeps D =
 * +-det(M).  bsp_enum_branch walks the twin's tree: a child in its
 * parent's span closes on the parent's tables, any other child on a
 * fresh close_set.  Nothing is cached from one call to the next.
 *
 * All values are minors of 0/1 matrices of order <= 6 and their sums,
 * far inside int64.
 */

#include <stdint.h>
#include <string.h>

#define MAXD 6
#define MAXP 64                 /* 2^MAXD cube points */
#define FORM_WORDS (2 + MAXP)   /* form record: header, packed rows, mask */

typedef struct {
    int rank;
    int64_t den;                /* D */
    uint64_t valid;             /* bit sigma: sigma is a valid pattern */
    uint64_t closed;
    uint64_t ok[MAXP];          /* bit sigma of ok[y]: t(y, sigma) in {0, D}; 0 off the span */
    uint64_t one[MAXP];         /* bit sigma of one[y]: t(y, sigma) = D */
} closure_t;

static int lowest_bit(uint64_t x)
{
    int i = 0;
    while (!((x >> i) & 1))
        i++;
    return i;
}

/* Puts point y in place of the first unit row k >= r of M with
   phi_k(y) != 0 and moves that row to r, keeping phi_i(m_j) = D [i = j]:
   phi_i <- (phi_k(y) phi_i - phi_i(y) phi_k) / D for i != k (an exact
   division, as D = +-det(M) before and after), D <- phi_k(y).  Returns 0,
   changing nothing, when y is in the span of the first r rows. */
static int extend(int d, int r, int y, int64_t phi[MAXD][MAXD], int64_t *den)
{
    int64_t v[MAXD], fk[MAXD];
    int k = -1;
    for (int i = 0; i < d; i++) {
        v[i] = 0;
        for (int j = 0; j < d; j++)
            if ((y >> j) & 1)
                v[i] += phi[i][j];
        if (k < 0 && i >= r && v[i] != 0)
            k = i;
    }
    if (k < 0)
        return 0;
    memcpy(fk, phi[k], sizeof fk);
    for (int i = 0; i < d; i++) {
        if (i == k)
            continue;
        for (int j = 0; j < d; j++)
            phi[i][j] = (v[k] * phi[i][j] - v[i] * fk[j]) / *den;
    }
    memmove(phi[r + 1], phi[r], (k - r) * sizeof phi[r]);
    memcpy(phi[r], fk, sizeof fk);
    *den = v[k];
    return 1;
}

/* The closure of any set of span points of c whose valid patterns are v:
   the points y != 0 with ok[y] & v == v.  v holds sigma = 0, which ok[y]
   holds exactly on the span. */
static uint64_t closure_of(int d, const closure_t *c, uint64_t v)
{
    uint64_t closed = 0;
    for (int y = 1; y < (1 << d); y++)
        if ((c->ok[y] & v) == v)
            closed |= (uint64_t)1 << y;
    return closed;
}

static void close_set(int d, uint64_t sset, closure_t *c)
{
    int64_t phi[MAXD][MAXD] = {{0}};  /* from M = I, D = 1 */
    int r = 0;

    for (int i = 0; i < d; i++)
        phi[i][i] = 1;
    c->den = 1;
    sset &= ~(uint64_t)1;
    for (int y = 1; y < (1 << d) && r < d; y++)
        if ((sset >> y) & 1)
            r += extend(d, r, y, phi, &c->den);
    c->rank = r;

    int nsig = 1 << r;
    uint64_t all = nsig == 64 ? ~(uint64_t)0 : ((uint64_t)1 << nsig) - 1;
    int64_t w[MAXP][MAXD];
    memset(w[0], 0, sizeof w[0]);
    c->ok[0] = all;
    c->one[0] = 0;
    for (int y = 1; y < (1 << d); y++) {
        int low = lowest_bit((uint64_t)y);
        int in_span = 1;
        for (int i = 0; i < d; i++) {
            w[y][i] = w[y & (y - 1)][i] + phi[i][low];
            if (i >= r && w[y][i] != 0)
                in_span = 0;
        }
        c->ok[y] = c->one[y] = 0;
        if (!in_span)
            continue;
        int64_t t[MAXP];
        t[0] = 0;
        c->ok[y] = 1;
        for (int s = 1; s < nsig; s++) {
            t[s] = t[s & (s - 1)] + w[y][lowest_bit((uint64_t)s)];
            if (t[s] == 0)
                c->ok[y] |= (uint64_t)1 << s;
            else if (t[s] == c->den) {
                c->ok[y] |= (uint64_t)1 << s;
                c->one[y] |= (uint64_t)1 << s;
            }
        }
    }
    c->valid = all;
    for (int y = 1; y < (1 << d); y++)
        if ((sset >> y) & 1)
            c->valid &= c->ok[y];
    c->closed = closure_of(d, c, c->valid);
}

/* Product-matrix rows of the closed set `closed` against the valid
   patterns of c, which may be the closure data of any set whose closure
   is `closed`: columns are the origin and then the points of `closed` in
   ascending order, bit n-1-j of a row is the product with column j, rows
   go by increasing sigma.  Returns the row count and sets *n. */
static int rows_of(int d, uint64_t closed, const closure_t *c, uint64_t *rows, int *n)
{
    int members[MAXP], nm = 0, nrows = 0;
    members[nm++] = 0;
    for (int y = 1; y < (1 << d); y++)
        if ((closed >> y) & 1)
            members[nm++] = y;
    for (int s = 0; s < (1 << c->rank); s++) {
        if (!((c->valid >> s) & 1))
            continue;
        uint64_t row = 0;
        for (int j = 0; j < nm; j++)
            if ((c->one[members[j]] >> s) & 1)
                row |= (uint64_t)1 << (nm - 1 - j);
        rows[nrows++] = row;
    }
    *n = nm;
    return nrows;
}

static void sort_u64(uint64_t *x, int n)
{
    for (int i = 1; i < n; i++) {
        uint64_t key = x[i];
        int j = i - 1;
        while (j >= 0 && x[j] > key) {
            x[j + 1] = x[j];
            j--;
        }
        x[j + 1] = key;
    }
}

/* Bit m-1-i of out[j] is bit n-1-j of in[i]. */
static void transpose(const uint64_t *in, int m, int n, uint64_t *out)
{
    for (int j = 0; j < n; j++) {
        out[j] = 0;
        for (int i = 0; i < m; i++)
            if ((in[i] >> (n - 1 - j)) & 1)
                out[j] |= (uint64_t)1 << (m - 1 - i);
    }
}

/* Sort rows and columns alternately until stable (at most 6 rounds),
   in place; bsp._kernel_c adds the byte encoding of
   bsp._kernel_py.heuristic_form. */
static void heuristic_form(uint64_t *rows, int m, int n)
{
    uint64_t cols[MAXP], next[MAXP];
    sort_u64(rows, m);
    for (int round = 0; round < 6; round++) {
        transpose(rows, m, n, cols);
        sort_u64(cols, n);
        transpose(cols, n, m, next);
        sort_u64(next, m);
        int same = memcmp(next, rows, m * sizeof *rows) == 0;
        memcpy(rows, next, m * sizeof *rows);
        if (same)
            break;
    }
}

/* Packs rows[0..m) in place into the bytes of
   bsp._kernel_py.heuristic_form: each row as (n + 7) / 8 big-endian
   bytes, one after another, zero padded to whole words; returns the
   number of words.  Row i is read before its bytes are written, and
   they end at or before byte 8 (i + 1), where row i + 1 starts. */
static int pack_rows(uint64_t *rows, int m, int n)
{
    unsigned char *out = (unsigned char *)rows;
    int width = (n + 7) / 8, size = m * width, words = (size + 7) / 8;
    for (int i = 0; i < m; i++) {
        uint64_t r = rows[i];
        for (int b = width - 1; b >= 0; b--, r >>= 8)
            out[i * width + b] = (unsigned char)r;
    }
    memset(out + size, 0, (size_t)words * 8 - size);
    return words;
}

/* Hash set of fixed-size records of `stride` words, the key in the
   first words; slots hold record index + 1, 0 when empty. */
typedef struct {
    uint64_t *recs;
    int32_t *slots;
    int stride, cap, count;
} table_t;

static void table_init(table_t *t, uint64_t *recs, int32_t *slots, int stride, int cap)
{
    t->recs = recs;
    t->slots = slots;
    t->stride = stride;
    t->cap = cap;
    t->count = 0;
    memset(slots, 0, 2 * (size_t)cap * sizeof *slots);
}

/* The record whose first len words equal key, added when absent; the
   caller empties the table as soon as it is full. */
static uint64_t *table_get(table_t *t, const uint64_t *key, int len)
{
    uint64_t h = 0;
    for (int i = 0; i < len; i++) {
        h = (h ^ key[i]) * 0x9E3779B97F4A7C15ULL;
        h ^= h >> 31;
    }
    uint64_t nslots = 2 * (uint64_t)t->cap;
    for (uint64_t s = h % nslots;; s = (s + 1) % nslots) {
        int32_t k = t->slots[s];
        if (k == 0) {
            uint64_t *rec = t->recs + (size_t)t->count * t->stride;
            memset(rec, 0, t->stride * sizeof *rec);
            memcpy(rec, key, len * sizeof *key);
            t->slots[s] = ++t->count;
            return rec;
        }
        uint64_t *rec = t->recs + (size_t)(k - 1) * t->stride;
        if (memcmp(rec, key, len * sizeof *key) == 0)
            return rec;
    }
}

/* ---- exported ---------------------------------------------------- */

/* rows: 64 words; returns the row count and sets *n. */
int bsp_pair_rows(int d, uint64_t closed, uint64_t *rows, int *n)
{
    closure_t c;
    close_set(d, closed, &c);
    return rows_of(d, closed, &c, rows, n);
}

/*
 * Closed sets whose pattern on the cube points 1..top_count is p_index,
 * walked as the Close-by-One tree of bsp._kernel_py.enum_branch, with
 * the same values.  Each spanning one is reduced to its heuristic form
 * and kept in a table of cap records of FORM_WORDS words: header (row
 * count | column count << 8), the sorted rows packed as the form's
 * bytes (pack_rows), zero padding, and the smallest mask with that form.
 * When the table fills, flush(cap) hands the records over and the table
 * starts empty again; the walk ends with flush(count) for the rest.
 * counts: visited, spanning, and the records taken, which flush adds to
 * once it has read them; the walk stops at once when a flush has not.
 * slots: 2*cap words.
 *
 * A node a, made by adding point y, tries each j > y outside a that no
 * failed closure rules out; one that adds a point below j goes to
 * failed[j], the others are pushed.  The walk is depth first, so the
 * tables level[k] and failed[k] of the node expanded last at depth k
 * stay in place while any child of that node is pending.  The pending
 * children of each node on the path to the one being expanded lie
 * strictly between its point and its child's, and that node's own lie
 * after its point: at most 2^d - 1 nodes are ever pending, and depths
 * run to 2^d.
 */
typedef struct {
    closure_t c;
    int y, depth;
} node_t;

void bsp_enum_branch(int d, int top_count, uint64_t p_index, uint64_t *counts,
                     uint64_t *recs, int32_t *slots, int cap, void (*flush)(int))
{
    uint64_t top_bits = (((uint64_t)1 << top_count) - 1) << 1;
    uint64_t p_bits = (p_index << 1) & top_bits;
    node_t stack[MAXP];
    closure_t level[MAXP + 1];
    uint64_t failed[MAXP + 1][MAXP];
    table_t tab;
    table_init(&tab, recs, slots, FORM_WORDS, cap);
    uint64_t handed = 0;
    counts[0] = counts[1] = counts[2] = 0;
    memset(failed[0], 0, sizeof failed[0]);
    close_set(d, p_bits, &stack[0].c);
    stack[0].y = top_count;
    stack[0].depth = 1;
    int top = (stack[0].c.closed & top_bits) == p_bits;
    while (top > 0) {
        node_t *node = &stack[--top];
        int k = node->depth, y = node->y;
        closure_t *c = &level[k];
        *c = node->c;
        uint64_t a = c->closed;
        counts[0]++;
        if (c->rank == d) {
            uint64_t key[FORM_WORDS];
            int n, m = rows_of(d, a, c, key + 1, &n);
            counts[1]++;
            heuristic_form(key + 1, m, n);
            key[0] = (uint64_t)m | (uint64_t)n << 8;
            uint64_t *rec = table_get(&tab, key, 1 + pack_rows(key + 1, m, n));
            /* a new record holds mask 0, and a spanning set is not empty */
            if (rec[FORM_WORDS - 1] == 0 || a < rec[FORM_WORDS - 1])
                rec[FORM_WORDS - 1] = a;
            if (tab.count == cap) {
                flush(cap);
                if (counts[2] != (handed += cap))
                    return;
                table_init(&tab, recs, slots, FORM_WORDS, cap);
            }
        }
        memcpy(failed[k], failed[k - 1], sizeof failed[k]);
        for (int j = y + 1; j < (1 << d); j++) {
            uint64_t bit = (uint64_t)1 << j, below = bit - 1;
            if ((a & bit) || (failed[k][j] & below & ~a))
                continue;
            closure_t *child = &stack[top].c;
            if (c->ok[j]) {  /* j is in the span of a */
                uint64_t v = c->valid & c->ok[j], b = closure_of(d, c, v);
                if ((b ^ a) & below) {
                    failed[k][j] = b;
                    continue;
                }
                *child = *c;
                child->valid = v;
                child->closed = b;
            } else {
                close_set(d, a | bit, child);
                if ((child->closed ^ a) & below) {
                    failed[k][j] = child->closed;
                    continue;
                }
            }
            stack[top].y = j;
            stack[top++].depth = k + 1;
        }
    }
    flush(tab.count);
}
