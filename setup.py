from setuptools import Extension, setup

# optional=True: without a C compiler the package installs anyway and runs on
# the pure-Python kernel.
setup(ext_modules=[
    Extension(
        "pmhgraph._kernel._fastcore",
        ["src/pmhgraph/_kernel/_fastcore.c"],
        extra_compile_args=["-O3"],
        optional=True,
    )
])
