/* Compiled kernels for the hot inner loops.
 *
 * Twin of _kernels_py: the same functions, arguments (positional only),
 * semantics and status codes (0 ok, 1 convergence budget exhausted,
 * 2 zero denominator, 3 a term outside the double range).  The products
 * take a counted number of factors and stop by no rule of their own; qcore
 * counts the factors of a truncated (a;q)_oo before it calls qpoch_finite.
 * A walk or product whose inputs are all real runs in double, the same
 * loop body as the double complex one, and gives the same bits as
 * _kernels_py.  Build with `python3 setup.py build_ext --inplace`.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <complex.h>
#include <math.h>

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs != want)
        PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                     name, want, nargs);
    return nargs == want;
}

static int as_complex(PyObject *obj, double complex *out)
{
    Py_complex c = PyComplex_AsCComplex(obj);
    ((double *)out)[0] = c.real;
    ((double *)out)[1] = c.imag;
    return !(c.real == -1.0 && PyErr_Occurred());
}

static int as_double(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return !(*out == -1.0 && PyErr_Occurred());
}

static int as_long(PyObject *obj, long *out)
{
    *out = PyLong_AsLong(obj);
    return !(*out == -1 && PyErr_Occurred());
}

/* (value, status) */
static PyObject *result(double complex v, int status)
{
    return Py_BuildValue("(Ni)", PyComplex_FromDoubles(creal(v), cimag(v)), status);
}

/* prod_{j<k} (1 - f q^j) into out, for f and out both double or both
 * double complex */
#define FINITE_PRODUCT(out, f, q, k)  \
    for (long j_ = 0; j_ < (k); j_++) { \
        (out) *= 1.0 - (f);            \
        (f) *= (q);                    \
    }

static PyObject *qpoch_finite(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double complex out = 1.0, f;
    double q, re = 1.0, x;
    long k;
    if (!arity("qpoch_finite", nargs, 3) || !as_complex(args[0], &f)
        || !as_double(args[1], &q) || !as_long(args[2], &k))
        return NULL;
    if (cimag(f) == 0) {
        x = creal(f);
        FINITE_PRODUCT(re, x, q, k);
        return PyComplex_FromDoubles(re, 0.0);
    }
    FINITE_PRODUCT(out, f, q, k);
    return PyComplex_FromDoubles(creal(out), cimag(out));
}

static PyObject *qpoch_negative(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    double complex den = 1.0, f, g;
    double q;
    long k, j;
    if (!arity("qpoch_negative", nargs, 3) || !as_complex(args[0], &f)
        || !as_double(args[1], &q) || !as_long(args[2], &k))
        return NULL;
    for (j = 0; j < k; j++) {
        f /= q;
        g = 1.0 - f;
        if (g == 0)
            return result(0.0, 2);
        den *= g;
    }
    return result(den == 0 ? CMPLX(INFINITY, NAN) : 1.0 / den, 0);
}

/* _kernels_py._geometric_cut over the n real parameters in re: the q^k
 * at and below which every factor 1 - p q^k rounds to exactly 1, or NaN,
 * which no q^k is at or below, unless q >= 0 and max |p| <= 2^900. */
static double geometric_cut(const double *re, Py_ssize_t n, double q)
{
    double big = 0.0;
    Py_ssize_t i;
    if (!(q >= 0))
        return NAN;
    for (i = 0; i < n; i++)
        if (fabs(re[i]) > big)
            big = fabs(re[i]);
    if (big > 0x1p900)
        return NAN;
    return big ? 0x1p-54 / big * (1 - 0x1p-50) : HUGE_VAL;
}

/* The loop of _kernels_py.phi_sum over the parameters in buf, nu upper
 * then nl lower, written once for T = double complex and T = double; the
 * ratio has no (1 - q^{k+1}) of its own.  Once q^k is at most cut (NaN
 * for a walk that never switches) the term is multiplied by z alone.
 * Stores the value and sum |t_k| and returns the status; a term that is
 * not finite stops the walk, unsummed, with status 3, tested only when
 * it does not fall below the running maximum. */
#define SUM_SERIES(name, T, ABS)                                                         \
    static int name(const T *buf, Py_ssize_t nu, Py_ssize_t nl, double q, T z,          \
                    long sign_power, long n_terms, double eps, long max_terms,           \
                    double cut, double complex *value, double *mass)                     \
    {                                                                                    \
        T total = 1.0, term = 1.0, num, den;                                             \
        double scale = 1.0, qk = 1.0, t;                                                 \
        long limit = n_terms >= 0 ? n_terms : max_terms, k;                              \
        int quiet = 0, status = n_terms >= 0 ? 0 : 1;                                    \
        Py_ssize_t i;                                                                    \
        *mass = 1.0;                                                                     \
        for (k = 0; k < limit; k++) {                                                    \
            if (qk <= cut) {                                                             \
                term *= z;                                                               \
            } else {                                                                     \
                num = z;                                                                 \
                for (i = 0; i < nu; i++)                                                 \
                    num *= 1.0 - buf[i] * qk;                                            \
                den = 1.0;                                                               \
                for (i = nu; i < nu + nl; i++)                                           \
                    den *= 1.0 - buf[i] * qk;                                            \
                if (den == 0) {                                                          \
                    status = 2;                                                          \
                    break;                                                               \
                }                                                                        \
                if (sign_power)                                                          \
                    num *= pow(-qk, (double)sign_power);                                 \
                term = term * num / den;                                                 \
                qk *= q;                                                                 \
            }                                                                            \
            t = ABS(term);                                                               \
            if (!(t <= scale)) {                                                         \
                if (!(t < HUGE_VAL)) {                                                   \
                    status = 3;                                                          \
                    break;                                                               \
                }                                                                        \
                scale = t;                                                               \
            }                                                                            \
            total += term;                                                               \
            *mass += t;                                                                  \
            if (n_terms < 0) {                                                           \
                quiet = t < eps * scale ? quiet + 1 : 0;                                 \
                if (quiet >= 5) {                                                        \
                    status = 0;                                                          \
                    break;                                                               \
                }                                                                        \
            }                                                                            \
        }                                                                                \
        *value = total;                                                                  \
        return status;                                                                   \
    }

SUM_SERIES(sum_complex, double complex, cabs)
SUM_SERIES(sum_real, double, fabs)

static PyObject *phi_sum(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *seqs[2] = {NULL, NULL}, *out = NULL;
    double complex *buf = NULL, z, value;
    double *re, q, eps, mass;
    long sign_power, n_terms, max_terms;
    Py_ssize_t n[2] = {0, 0}, i, s;
    int real, status;
    if (!arity("phi_sum", nargs, 8) || !as_double(args[2], &q) || !as_complex(args[3], &z)
        || !as_long(args[4], &sign_power) || !as_long(args[5], &n_terms)
        || !as_double(args[6], &eps) || !as_long(args[7], &max_terms))
        return NULL;
    for (s = 0; s < 2; s++) {
        seqs[s] = PySequence_Fast(args[s], "series parameters must be a sequence");
        if (seqs[s] == NULL)
            goto done;
        n[s] = PySequence_Fast_GET_SIZE(seqs[s]);
    }
    /* the parameters as double complex, then their real parts as double */
    buf = PyMem_Malloc((n[0] + n[1] + 1) * (sizeof(double complex) + sizeof(double)));
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    re = (double *)(buf + n[0] + n[1] + 1);
    real = cimag(z) == 0;
    for (s = 0; s < 2; s++)
        for (i = 0; i < n[s]; i++) {
            if (!as_complex(PySequence_Fast_GET_ITEM(seqs[s], i), buf + s * n[0] + i))
                goto done;
            re[s * n[0] + i] = creal(buf[s * n[0] + i]);
            real = real && cimag(buf[s * n[0] + i]) == 0;
        }
    if (real)
        status = sum_real(re, n[0], n[1], q, creal(z), sign_power, n_terms, eps, max_terms,
                          n_terms < 0 && !sign_power ? geometric_cut(re, n[0] + n[1], q) : NAN,
                          &value, &mass);
    else
        status = sum_complex(buf, n[0], n[1], q, z, sign_power, n_terms, eps, max_terms, NAN,
                             &value, &mass);
    out = Py_BuildValue("(Nid)", PyComplex_FromDoubles(creal(value), cimag(value)), status, mass);
done:
    PyMem_Free(buf);
    Py_XDECREF(seqs[0]);
    Py_XDECREF(seqs[1]);
    return out;
}

#define KERNEL(name, doc) {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, doc}

static PyMethodDef methods[] = {
    KERNEL(qpoch_finite, "qpoch_finite(a, q, k): prod_{j<k} (1 - a q^j)."),
    KERNEL(qpoch_negative, "qpoch_negative(a, q, k): (1 / prod_{j=1}^{k} (1 - a q^-j), status)."),
    KERNEL(phi_sum, "phi_sum(upper, lower, q, z, sign_power, n_terms, tail_epsilon, max_terms):"
                    " (value, status, sum |t_k|)."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_kernels", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled twin of qspecial._kernels_py.",
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "c") < 0)
        Py_CLEAR(m);
    return m;
}
